package aligraph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/storage"
)

// goldenVertices are the vertices whose trained embeddings are pinned.
var goldenVertices = []ID{0, 5, 42}

const goldenSteps = 16

// goldenTrainConfig is the shipped GraphSAGE set-up with attributes: hops
// [5,3], so the materialized encoder shares rows across layers of two
// widths.
func goldenTrainConfig(pl PipelineConfig) TrainConfig {
	tc := DefaultTrainConfig()
	tc.UseAttrs = true
	tc.Pipeline = pl
	return tc
}

// goldenRun trains goldenSteps steps and returns the bits of every loss and
// of the embeddings of goldenVertices, row after row.
func goldenRun(t *testing.T, tr *Trainer) (losses, emb []uint64) {
	t.Helper()
	defer tr.Close()
	ls, err := tr.Train(goldenSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls {
		losses = append(losses, math.Float64bits(l))
	}
	m, _, err := tr.EmbedCtx(goldenVertices)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Data {
		emb = append(emb, math.Float64bits(v))
	}
	return losses, emb
}

func checkGolden(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d\ngot:\n%s", what, len(got), len(want), goldenLiteral(got))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v (%#x), want %v (%#x)\ngot:\n%s", what, i,
				math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i], goldenLiteral(got))
			return
		}
	}
}

// goldenLiteral formats bits as a Go slice body, for diagnosing a mismatch.
func goldenLiteral(bits []uint64) string {
	var b strings.Builder
	for i, v := range bits {
		if i%4 == 0 {
			b.WriteString("\t")
		}
		fmt.Fprintf(&b, "%#016x,", v)
		if i%4 == 3 || i == len(bits)-1 {
			b.WriteString("\n")
		} else {
			b.WriteString(" ")
		}
	}
	return b.String()
}

// TestGoldenBits pins fixed-seed training to recorded bits: the first
// losses of a local and of a sharded, pipelined GraphSAGE trainer, and the
// embeddings each then produces. Determinism tests elsewhere compare two
// runs of the same code; this one compares against the arithmetic of the
// code that recorded the values, so a kernel rewrite that reorders a single
// floating-point sum fails here.
func TestGoldenBits(t *testing.T) {
	g := dataset.Taobao(dataset.TaobaoSmallConfig(0.03))

	t.Run("local", func(t *testing.T) {
		p := NewPlatform(g, 1)
		losses, emb := goldenRun(t, p.NewGraphSAGE(goldenTrainConfig(PipelineConfig{})))
		checkGolden(t, "losses", losses, goldenLocalLosses)
		checkGolden(t, "embeddings", emb, goldenLocalEmb)
	})

	t.Run("cluster", func(t *testing.T) {
		assign, err := (partition.HashPartitioner{}).Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := cluster.NewLocalTransport(cluster.FromGraph(g, assign))
		cp := NewClusterPlatform(assign, tr, storage.NewImportanceCacheTopFraction(g, 2, 0.2), 1)
		trainer, err := cp.NewGraphSAGE(goldenTrainConfig(PipelineConfig{Depth: 4, Workers: 2}))
		if err != nil {
			t.Fatal(err)
		}
		losses, emb := goldenRun(t, trainer)
		checkGolden(t, "losses", losses, goldenClusterLosses)
		checkGolden(t, "embeddings", emb, goldenClusterEmb)
	})
}

var (
	goldenLocalLosses = []uint64{
		0x3ff7fb505a94da8f, 0x3ff7a5cf4fbc4ef8, 0x3ff65ca4d0d5898b, 0x3ff66419cfb8663a,
		0x3ff60f288b78e0ba, 0x3ff60f98398800c0, 0x3ff6680f9452fd0e, 0x3ff63d3c7056f5c0,
		0x3ff5d185ec83b6ee, 0x3ff606cc4951450b, 0x3ff65d1615aa6b6c, 0x3ff5ec4aaf2da2c5,
		0x3ff5cc8361d77b38, 0x3ff58cf05a79410c, 0x3ff5b2e7cbceafa9, 0x3ff58649d4e2edce,
	}
	goldenLocalEmb = []uint64{
		0xbfaa148f9a5b27bd, 0xbfb16ca600670202, 0x3fa35126497c03a8, 0xbfb1fd2d3c4d5f28,
		0x3fc68eedf8a81383, 0xbfbf6f05bca1d3b2, 0x3fb8f16b7d4f6051, 0x3fb0761effe20853,
		0xbfc05a2f4abcdae3, 0xbfc23ebedfd4f5f5, 0xbf4f4087700b3640, 0x3f965b0cd4fd491d,
		0xbfb1eeea2593b87c, 0x3fc2ea86030e1fe3, 0xbfc3be0809bbb2ed, 0x3fac74159f0973aa,
		0x3fd2674b7261d8d3, 0xbfc086210505c58b, 0xbfab338cf4c3cffc, 0x3fb04854f47e42de,
		0xbf9e8ce99532b118, 0x3fca02b7cbb23988, 0x3fbfc879aff0d9a2, 0x3fb336f01706ef42,
		0xbfb4ebd886e5807c, 0xbfc705d2359e8e75, 0x3f9a925ab701bee8, 0xbf94e53b88cf00a1,
		0x3fa44111dd243d5b, 0x3fd094d1f5919c13, 0x3fac2b4e4a1bfc3a, 0x3fb16fb6851b1e92,
		0xbfa08696bf3aa706, 0x3fb9b8609ab5b89a, 0xbfbcfcd5d347a20b, 0xbfce5fb46e311928,
		0xbfb2f06b44871db8, 0x3fc4505a28031a1e, 0x3fc218db775c2e8d, 0x3fd199160e51546f,
		0x3fa24313d94c49d4, 0x3fadb05af0c64d8c, 0xbf697fd3e8ab9780, 0xbfa3ceb3317cdade,
		0xbfd116dbf00cf64b, 0x3fa3ae8b55365878, 0xbfbc8cb9b7a68db3, 0xbfa0ea94ae898e98,
		0x3fc6229322624e95, 0xbfbe50fd0a45150a, 0x3fbb209864efaf90, 0x3fceaed352fd19a4,
		0x3fa7cfb5c1f96185, 0xbfb6fbe815fcbf36, 0xbfb0da1eb12ebf74, 0x3f8ed3dea1036d2a,
		0x3fca4a59ffb71b13, 0xbfd4c86b90883176, 0x3fb858d4965c6cde, 0xbfb2d2558af87ce2,
		0xbfd08c09a7a46b33, 0xbfa4d55e544ecfb6, 0xbfc8b31e3d3d151e, 0x3fbf6dd445ceff2c,
		0x3fd50b4de874d519, 0x3f8b52335896611c, 0xbfb7452316017b7d, 0xbfc7cb22bb25e5aa,
		0xbfafbc8d2a5dee36, 0x3fcd23b23aecf1a1, 0xbfbaa6a5691f3458, 0x3fa06f0690f61ef0,
		0x3fce7fb87403701d, 0xbf8f473d471e35b7, 0x3f420fe2bbb52440, 0xbfcf05c2b30fe271,
		0x3fb70940e932ce52, 0xbfb5985d09962a38, 0x3fc9cb2a1bc6c0d2, 0xbfcf48301433697d,
		0xbfcd2cea42a20aad, 0x3f95acd4a2e108a4, 0xbfcc9c81dbb95a70, 0xbf9d3f3bd09897d8,
		0x3fd27b62ff7923b5, 0xbfaa3bd1bcfe864e, 0xbfb30e8540a0ea7e, 0x3fad3d7f6eda1c24,
		0x3fdd8f0b09293aab, 0xbfc8a193ee95dd82, 0xbfb4ba7c17c1bad3, 0x3f9004ca363d78bd,
		0xbfc90d28cd204ecb, 0xbfa2586576b49ff0, 0xbfafc492d566d16c, 0x3f920709a2be67e6,
	}
	goldenClusterLosses = []uint64{
		0x3ff869c5428dfc9a, 0x3ff7f35b4d29bec5, 0x3ff6a26cfda5b310, 0x3ff644e05e760aff,
		0x3ff6a1c61266d92b, 0x3ff65c19d293579c, 0x3ff642e8d003e3ee, 0x3ff62e9f82fd811c,
		0x3ff5f8fb2c341c66, 0x3ff62d31a87fc270, 0x3ff616839b9fbce8, 0x3ff5cb6c76e38cfa,
		0x3ff581913456249e, 0x3ff6135919dcb2e3, 0x3ff5730f532a908d, 0x3ff5c168593ccff8,
	}
	goldenClusterEmb = []uint64{
		0x3f904cf7b65320f9, 0xbfbf35720c655d9d, 0x3fb33fe4daa21f97, 0x3f903afbbc529ba7,
		0x3fc7765aee31e522, 0xbfbdf61597f3d186, 0xbfb6c941a3a19ed6, 0x3f954935fdf33fc8,
		0xbfca830d08903880, 0xbfb2e562f774fd84, 0xbfbb846af3d58b0f, 0x3fa4a6f30d231b73,
		0xbfb226b195391a86, 0x3fbeeb339f66dfc1, 0xbfb8ccc6c4421383, 0x3fa645131b1288cc,
		0x3fc8449912a9089c, 0x3fb01adf66e93d0c, 0x3fc1659969b378b0, 0x3fbaf10234a16288,
		0xbf7c641982a3db3e, 0x3fbb044ecb6c777c, 0x3fc0fab4aba2781d, 0xbfbefced097dc24b,
		0xbf9fbea5236d0e98, 0xbfb0d133b3121558, 0x3f6058ac2d6d82c0, 0xbfa31d8b252f8c52,
		0x3fb8748c9da23d81, 0x3fba62253761bd1d, 0x3f838ce65a833034, 0xbfb75811c7d70df4,
		0x3f9599734fe2e815, 0x3fad0a9ca83c52ee, 0xbfb4fa26459d5220, 0x3f9ea722169fbaa0,
		0xbfad9aa385286076, 0xbfa13b307fa0cb14, 0xbfb1be529aa88738, 0x3fc19687dcba0202,
		0x3fb3dddaf4422837, 0xbfb0ec8cffd00f69, 0xbfc2e97c14135d74, 0x3fc2a8ff24487547,
		0xbfc9165293615d57, 0xbfa49bb749d65322, 0xbfb1a296432552ba, 0xbf5a6cf3e4bb5442,
		0x3fbd69280af3c447, 0x3f8dfdaac8c9e7e2, 0x3fcc0835e8a547dc, 0x3fb41393e4693284,
		0xbfcf9abd60625537, 0xbfb0e3dc8e254b2d, 0xbfaccdb380498e2f, 0xbfc18f8570db6176,
		0xbfc4bc8b77c7ebed, 0xbf75afb90f7512f8, 0x3fd3b96feff15b2b, 0x3f913551dea1a82e,
		0x3fb4725975a10f51, 0xbfc0b4fdfb097cd3, 0xbf86bdd144fb2c46, 0xbfc6a0465a9f496d,
		0x3fcc9161866e1a29, 0x3fc9d094c3c78b6a, 0xbfbcb3ae56336d44, 0x3fb940fe954aba69,
		0x3fb67245f90bfd18, 0x3fa17ff8af31c6bb, 0xbfd036c2d207e224, 0xbfc85d9ca6f0eef4,
		0xbfb7732e5524d99e, 0xbfc892b5207f9794, 0x3faaa2c801512bbd, 0xbf94ba2c6c6d828c,
		0x3f92bbc139639d1f, 0xbf7d0449d559a868, 0xbfc1207e9507adf3, 0x3fa3b63cb6a947fb,
		0x3fc77156b2a07dc0, 0x3fb346828bea985c, 0xbfbbcc6dd9a525d5, 0x3f72f6426d5c9950,
		0x3fb6f0c103c45f87, 0x3f80bd66d0e3f8c4, 0x3fb5eeb6368e656d, 0x3fa9c55648b01c9a,
		0x3fc75e99b6810913, 0xbfd168fc32b80be4, 0x3fa98df2a6459ffb, 0xbfc5d4ce40a5516e,
		0x3fa0d598d12fc20d, 0x3fceef435b13afa5, 0xbfbcbe085e1ae422, 0xbfca75fc08a9e545,
	}
)
