package aligraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/storage"
)

// TestEmbedBatchIndependent checks the per-vertex semantics of Algorithm 1:
// an embedding depends on the vertex and the model, not on the batch it is
// computed in. For random batches with repeated vertices, every row of
// Embed(B) equals Embed({v}) bit for bit, on a local platform and on two
// shards behind a replacing neighbour cache (whose contents differ from
// call to call).
func TestEmbedBatchIndependent(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))
	tc := goldenTrainConfig(PipelineConfig{})

	check := func(t *testing.T, tr *Trainer) {
		defer tr.Close()
		if _, err := tr.Train(4); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 4; round++ {
			batch := make([]ID, 24)
			for i := range batch {
				batch[i] = ID(rng.Intn(40)) // 24 draws from 40: repeats are likely
			}
			m, err := tr.Embed(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range batch {
				one, err := tr.Embed([]ID{v})
				if err != nil {
					t.Fatal(err)
				}
				for j, x := range one.Row(0) {
					if got := m.Row(i)[j]; math.Float64bits(got) != math.Float64bits(x) {
						t.Fatalf("round %d: Embed(B)[%d] (vertex %d) col %d = %v, Embed({%d}) = %v", round, i, v, j, got, v, x)
					}
				}
			}
		}
	}

	t.Run("local", func(t *testing.T) {
		p := NewPlatform(g, 1)
		check(t, p.NewGraphSAGE(tc))
	})

	t.Run("cluster", func(t *testing.T) {
		assign, err := (partition.HashPartitioner{}).Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := cluster.NewLocalTransport(cluster.FromGraph(g, assign))
		cp := NewClusterPlatform(assign, tr, storage.NewLRUNeighborCache(64), 1)
		trainer, err := cp.NewGraphSAGE(tc)
		if err != nil {
			t.Fatal(err)
		}
		check(t, trainer)
	})
}
