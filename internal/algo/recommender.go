package algo

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file implements the recommendation baselines of Table 9: a denoising
// autoencoder (DAE, Vincent et al.) and a β-VAE collaborative-filtering
// model (Liang et al.) over user interaction vectors.

// interactionMatrix builds the dense users x items binary matrix of type-et
// edges from the training graph; row index = position in users, column =
// position in items.
func interactionMatrix(g *graph.Graph, users, items []graph.ID, et graph.EdgeType) *tensor.Matrix {
	col := make(map[graph.ID]int, len(items))
	for j, it := range items {
		col[it] = j
	}
	m := tensor.New(len(users), len(items))
	for i, u := range users {
		for _, it := range g.OutNeighbors(u, et) {
			if j, ok := col[it]; ok {
				m.Set(i, j, 1)
			}
		}
	}
	return m
}

// DAE is the denoising-autoencoder recommender: interaction vectors are
// corrupted by dropout, reconstructed through a bottleneck, and items are
// ranked by reconstruction score.
type DAE struct {
	Hidden int
	Drop   float64
	Epochs int
	LR     float64
	Seed   int64

	users  map[graph.ID]int
	items  []graph.ID
	mlpIn  *nn.Dense
	mlpOut *nn.Dense
	inter  *tensor.Matrix
}

// NewDAE creates the baseline.
func NewDAE(hidden int) *DAE {
	return &DAE{Hidden: hidden, Drop: 0.3, Epochs: 60, LR: 0.01, Seed: 1}
}

// Name identifies the model.
func (d *DAE) Name() string { return "DAE" }

// FitRec trains on the recommendation split.
func (d *DAE) FitRec(sp *RecSplit) error {
	rng := rand.New(rand.NewSource(d.Seed))
	d.items = sp.Items
	d.users = make(map[graph.ID]int, len(sp.Users))
	for i, u := range sp.Users {
		d.users[u] = i
	}
	d.inter = interactionMatrix(sp.Train, sp.Users, sp.Items, sp.EdgeType)
	nItems := len(sp.Items)
	d.mlpIn = nn.NewDense("dae.enc", nItems, d.Hidden, nn.ActTanh, rng)
	d.mlpOut = nn.NewDense("dae.dec", d.Hidden, nItems, nn.ActIdentity, rng)
	params := append(d.mlpIn.Params(), d.mlpOut.Params()...)
	opt := nn.NewAdam(d.LR)

	for ep := 0; ep < d.Epochs; ep++ {
		corrupted := d.inter.Clone()
		for i := range corrupted.Data {
			if corrupted.Data[i] > 0 && rng.Float64() < d.Drop {
				corrupted.Data[i] = 0
			}
		}
		t := nn.NewTape()
		z := d.mlpIn.Forward(t, t.Input(corrupted))
		recon := d.mlpOut.Forward(t, z)
		loss := t.BCEWithLogits(recon, d.inter)
		t.Backward(loss)
		opt.Step(params)
	}
	return nil
}

// ScoreRec ranks item it for user u by reconstruction logit.
func (d *DAE) ScoreRec(u, it graph.ID) float64 {
	ui, ok := d.users[u]
	if !ok {
		return 0
	}
	t := nn.NewTape()
	row := tensor.New(1, d.inter.Cols)
	copy(row.Row(0), d.inter.Row(ui))
	recon := d.mlpOut.Forward(t, d.mlpIn.Forward(t, t.Input(row)))
	for j, item := range d.items {
		if item == it {
			return recon.Val.At(0, j)
		}
	}
	return 0
}

// scoreAll returns all item logits for one user (used by the harness to
// avoid per-item forward passes).
func (d *DAE) scoreAll(u graph.ID) []float64 {
	ui, ok := d.users[u]
	if !ok {
		return make([]float64, d.inter.Cols)
	}
	t := nn.NewTape()
	row := tensor.New(1, d.inter.Cols)
	copy(row.Row(0), d.inter.Row(ui))
	recon := d.mlpOut.Forward(t, d.mlpIn.Forward(t, t.Input(row)))
	return recon.Val.Row(0)
}

// RankScorer returns an efficient score function over the split's items.
func (d *DAE) RankScorer() func(u, it graph.ID) float64 {
	cache := make(map[graph.ID][]float64)
	idx := make(map[graph.ID]int, len(d.items))
	for j, it := range d.items {
		idx[it] = j
	}
	return func(u, it graph.ID) float64 {
		s, ok := cache[u]
		if !ok {
			s = d.scoreAll(u)
			cache[u] = s
		}
		return s[idx[it]]
	}
}

// BetaVAE is the variational recommender: a Gaussian bottleneck with
// β-weighted KL regularization.
type BetaVAE struct {
	Hidden int
	Latent int
	Beta   float64
	Epochs int
	LR     float64
	Seed   int64

	users  map[graph.ID]int
	items  []graph.ID
	enc    *nn.Dense
	mu     *nn.Dense
	logvar *nn.Dense
	dec    *nn.MLP
	inter  *tensor.Matrix
}

// NewBetaVAE creates the baseline.
func NewBetaVAE(hidden, latent int, beta float64) *BetaVAE {
	return &BetaVAE{Hidden: hidden, Latent: latent, Beta: beta, Epochs: 60, LR: 0.01, Seed: 1}
}

// Name identifies the model.
func (v *BetaVAE) Name() string { return "beta-VAE" }

// FitRec trains on the recommendation split.
func (v *BetaVAE) FitRec(sp *RecSplit) error {
	rng := rand.New(rand.NewSource(v.Seed))
	v.items = sp.Items
	v.users = make(map[graph.ID]int, len(sp.Users))
	for i, u := range sp.Users {
		v.users[u] = i
	}
	v.inter = interactionMatrix(sp.Train, sp.Users, sp.Items, sp.EdgeType)
	nItems := len(sp.Items)
	v.enc = nn.NewDense("vae.enc", nItems, v.Hidden, nn.ActTanh, rng)
	v.mu = nn.NewDense("vae.mu", v.Hidden, v.Latent, nn.ActIdentity, rng)
	v.logvar = nn.NewDense("vae.logvar", v.Hidden, v.Latent, nn.ActIdentity, rng)
	v.dec = nn.NewMLP("vae.dec", []int{v.Latent, v.Hidden, nItems}, nn.ActTanh, rng)
	params := append(append(append(v.enc.Params(), v.mu.Params()...), v.logvar.Params()...), v.dec.Params()...)
	opt := nn.NewAdam(v.LR)

	for ep := 0; ep < v.Epochs; ep++ {
		t := nn.NewTape()
		h := v.enc.Forward(t, t.Input(v.inter))
		mu := v.mu.Forward(t, h)
		logvar := v.logvar.Forward(t, h)
		// Reparameterization: z = mu + exp(logvar/2) * eps.
		eps := tensor.New(mu.Val.Rows, mu.Val.Cols)
		eps.GaussianInit(rng, 1)
		z := t.Add(mu, t.Mul(t.Exp(t.Scale(logvar, 0.5)), t.Input(eps)))
		recon := v.dec.Forward(t, z)
		lossRecon := t.BCEWithLogits(recon, v.inter)
		// KL(N(mu, sigma) || N(0,1)) = -0.5 * mean(1 + logvar - mu² - e^logvar)
		one := tensor.New(mu.Val.Rows, mu.Val.Cols)
		one.Fill(1)
		kl := t.Scale(t.MeanAll(t.Sub(t.Add(t.Input(one), logvar), t.Add(t.Mul(mu, mu), t.Exp(logvar)))), -0.5)
		loss := t.AddScalars(lossRecon, t.Scale(kl, v.Beta))
		t.Backward(loss)
		nn.ClipGrad(params, 5)
		opt.Step(params)
	}
	return nil
}

func (v *BetaVAE) scoreAll(u graph.ID) []float64 {
	ui, ok := v.users[u]
	if !ok {
		return make([]float64, v.inter.Cols)
	}
	t := nn.NewTape()
	row := tensor.New(1, v.inter.Cols)
	copy(row.Row(0), v.inter.Row(ui))
	h := v.enc.Forward(t, t.Input(row))
	mu := v.mu.Forward(t, h) // use the posterior mean at inference
	recon := v.dec.Forward(t, mu)
	return recon.Val.Row(0)
}

// RankScorer returns an efficient score function over the split's items.
func (v *BetaVAE) RankScorer() func(u, it graph.ID) float64 {
	cache := make(map[graph.ID][]float64)
	idx := make(map[graph.ID]int, len(v.items))
	for j, it := range v.items {
		idx[it] = j
	}
	return func(u, it graph.ID) float64 {
		s, ok := cache[u]
		if !ok {
			s = v.scoreAll(u)
			cache[u] = s
		}
		return s[idx[it]]
	}
}
