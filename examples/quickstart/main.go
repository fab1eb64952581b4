// Quickstart: build a small attributed heterogeneous graph through the
// public API, stand up a local in-memory platform, train a GraphSAGE-style
// encoder on unsupervised link prediction, and inspect the learned
// embeddings.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	aligraph "repro"
)

func main() {
	// 1. Define the schema: users and items, connected by click/buy edges.
	schema, err := aligraph.NewSchema([]string{"user", "item"}, []string{"click", "buy"})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build a toy two-community graph: users 0-19 favour items 40-49,
	// users 20-39 favour items 50-59.
	rng := rand.New(rand.NewSource(1))
	b := aligraph.NewBuilder(schema, true)
	for i := 0; i < 40; i++ {
		b.AddVertex(0, []float64{float64(i % 2), float64(i / 20)}) // toy demographics
	}
	for i := 0; i < 20; i++ {
		b.AddVertex(1, []float64{float64(100 + i)})
	}
	itemBase := func(u aligraph.ID) aligraph.ID {
		if u < 20 {
			return 40
		}
		return 50
	}
	for u := aligraph.ID(0); u < 40; u++ {
		for k := 0; k < 5; k++ {
			item := itemBase(u) + aligraph.ID(rng.Intn(10))
			b.AddEdge(u, item, 0, 1) // click
			b.AddEdge(item, u, 0, 1) // viewed-by (lets walks continue)
			if k == 0 {
				b.AddEdge(u, item, 1, 1) // buy
			}
		}
	}
	g := b.Finalize()
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// 3. Stand up the platform: the graph in this process, seed 1 for every
	// sampler and model it hands out.
	platform := aligraph.NewPlatform(g, 1)

	// 4. Train.
	cfg := aligraph.DefaultTrainConfig()
	cfg.HopNums = []int{4, 2}
	cfg.UseAttrs = true
	cfg.AttrDim = 2
	trainer := platform.NewGraphSAGE(cfg)
	losses, err := trainer.Train(150)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loss: %.4f -> %.4f\n", losses[0], losses[len(losses)-1])

	// 5. Same-community users should now score higher than cross-community.
	same, _ := trainer.Score(0, 1)   // both in community A
	cross, _ := trainer.Score(0, 25) // A vs B
	fmt.Printf("score(user0, user1)  = %.3f (same community)\n", same)
	fmt.Printf("score(user0, user25) = %.3f (cross community)\n", cross)
	if same > cross {
		fmt.Println("OK: the encoder separated the communities")
	} else {
		fmt.Println("note: communities not separated (try more steps)")
	}
}
