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
// [5,3], so the materialized encoder pads the second hop's groups.
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
		p, err := NewPlatform(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		losses, emb := goldenRun(t, p.NewGraphSAGE(goldenTrainConfig(PipelineConfig{})))
		checkGolden(t, "losses", losses, goldenLocalLosses)
		checkGolden(t, "embeddings", emb, goldenLocalEmb)
	})

	t.Run("cluster", func(t *testing.T) {
		assign, err := (partition.HashPartitioner{}).Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := cluster.NewLocalTransport(cluster.FromGraph(g, assign), 0, 0)
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
		0x3ff8233b6e050fb7, 0x3ff7e0528b822196, 0x3ff64736290d184b, 0x3ff601fdb202d073,
		0x3ff620202bea7442, 0x3ff60d883dfd5baa, 0x3ff65a67b836d1a0, 0x3ff5e614d0834372,
		0x3ff5cd44821e3601, 0x3ff5e8e6352e7aec, 0x3ff5aa81a6b28fa8, 0x3ff5389855573052,
		0x3ff5b838952b5301, 0x3ff5387c48083815, 0x3ff4e83d582bbc83, 0x3ff4d64ddfb37826,
	}
	goldenLocalEmb = []uint64{
		0xbf851b6bf432efb8, 0x3f989df4912ce738, 0x3fc364d414cf8e41, 0xbfbeaf0770a62eab,
		0x3fd0c309d8741cca, 0xbfaa00d468d937ec, 0x3f78a8767532a090, 0x3fba27427f74ca19,
		0xbfc422ffd3a1634d, 0xbfc5d09a9a1eff46, 0xbfb231142803db7c, 0x3facd83623e8a4b6,
		0xbfa4e243dc7f42dd, 0x3fca08461036c583, 0x3fae749d944c8dcf, 0xbfb3d87289dad294,
		0x3fd29a4ef1a155f8, 0xbfb34a5356f8a046, 0x3f846581eb785f12, 0x3fd0044201354b90,
		0xbfb6361a2cf2db29, 0x3fbaba77ff7cd2d6, 0xbf89aa2750e0a148, 0xbfa6dc49c74744bf,
		0xbfa551d5b43c8c48, 0xbfb38e3150219ef9, 0x3fb5d6fd6d3a1db2, 0xbfb64cdf3e8c88d5,
		0x3fa0d030ed546cc4, 0x3fc59cc6c72a81f5, 0x3fa24cbc7936da2f, 0xbfcf79166b757b98,
		0xbfa279a1f7502560, 0x3fc5766a212e67d2, 0xbfc208a58af8154f, 0xbfc82c7dc54b4d93,
		0x3f9b6578dfa45c14, 0x3fb54e802ab20283, 0x3f9604552d04318e, 0x3f907ae570b0bf8d,
		0x3faae56ae1246725, 0xbfbe017a360e3f96, 0xbfc1c53da404846c, 0xbfa0750082d402fa,
		0xbfca8b27d445156a, 0x3f9e4dda7ebb0a0c, 0xbfbc91527f7bfcf1, 0x3f8419dd52d9b35e,
		0xbf8e0903db0db830, 0x3fa933405bf5af9e, 0x3fbcb19f7a47ab5a, 0x3fbd77d6cf54fef0,
		0xbfb4cfa0044cb711, 0xbfc14ac5c472c4ec, 0xbfb50f090a8879a0, 0xbfca5151b85dd317,
		0xbf9d8078765ad7f3, 0x3faa12ef70281c58, 0x3fc5a644b737c03e, 0xbfb88d11c7209bb2,
		0x3f38c39fc11ff880, 0xbfa3cf76be78fda5, 0xbfbb7595d8e4116c, 0xbfa0e25b47fe47e4,
		0x3fc945b83da86cbf, 0x3fac2293edf40c62, 0xbf8b1b82748064ec, 0x3fca607aae1b8dfd,
		0x3fb242b6e6da02f0, 0x3fbb6c8b8b4bef6d, 0xbfd4e70564464bb5, 0xbfc3137cc2808357,
		0x3fa49717701cd2c7, 0xbfd001a9f62d99c0, 0x3f8c9aa19cbfe03c, 0xbfc4b0aec90a2b39,
		0x3fad9646c9f173de, 0xbf95e7f37a13e795, 0x3fb08343a074f6a0, 0xbfc2e797bed213dc,
		0x3fbf1270c9c35fb4, 0x3fc55861edb705ca, 0xbfc412f11f1974fd, 0xbfbdbe27dfb65403,
		0x3fbf8c536816221e, 0x3fbec673e933e958, 0x3facf63f5128460d, 0x3fca831d7d89ea8c,
		0x3fc53c00cabfc8db, 0xbfb76e5f91f45bbf, 0x3fa348b3db075d79, 0x3f9369056098e57e,
		0x3fc0416678d3a04e, 0x3fcc2755c8127fd7, 0xbf9cb8f7c61e002c, 0x3fb26f215c919748,
	}
	goldenClusterLosses = []uint64{
		0x3ff80a12307d3a7a, 0x3ff8090fafcdc1c0, 0x3ff636cbb497eba2, 0x3ff63f3389f1e3f0,
		0x3ff658251935e1b6, 0x3ff60bf98d21b69b, 0x3ff61a48d2a235d8, 0x3ff6089ab2213688,
		0x3ff63d91fcaa494f, 0x3ff5c509b50a5ba0, 0x3ff5c62c0f8b80a0, 0x3ff5aba9ac8a0618,
		0x3ff5701d9b978474, 0x3ff55baa5bba8bd7, 0x3ff48315283bf5b6, 0x3ff59f3e682a5938,
	}
	goldenClusterEmb = []uint64{
		0xbfb4d6195f804aa2, 0xbfa89f1b306a919a, 0x3f953631ac1978cc, 0xbfb83f94e6d9e2dd,
		0x3fc6df99d7665d43, 0x3f96bf064a1fbcf8, 0x3fb523500fabfe35, 0xbf9e3dfdc8cda97c,
		0x3f97ef0d166de11a, 0x3f9c076ea5e8e608, 0xbfc3d249bef53c16, 0xbfba6f3a29157d5d,
		0xbfc47e09a4089462, 0x3fae097050c2f69d, 0x3fbfd59d73645511, 0x3fb70da347c6bfef,
		0x3fd3e808d163aa06, 0xbf98a379478140e3, 0x3fbd13f88b34e85d, 0x3fb1bce126fab04e,
		0xbfc91c33ccbf3100, 0x3fb412e923b5b9f4, 0x3fb5a47f6d9c8639, 0xbfc4a286324b9bfe,
		0x3fb752530627883e, 0xbfb95a1c82588277, 0x3f9478a48b2ebbc4, 0xbf891c347164f6f1,
		0xbf8960783bff03f5, 0xbf86e4db7f1651b4, 0xbfa67573479b05c4, 0x3fb67892a88ac120,
		0x3fbc0735715e4d11, 0xbf8cfbe8176a6881, 0xbfc2f3892741d7e9, 0xbfa30b50d77caf9a,
		0xbfb28c98ec0fdcb6, 0x3fba5da43f3448c3, 0xbfa92b0e0f64270b, 0x3fae06d7f8f97018,
		0x3fb14d64e90b3088, 0x3f6be483daef1f64, 0xbfc95cebc938a74c, 0x3fc3fd69ef58d3d6,
		0xbfbc8525834de4d8, 0x3fb4ceee2b5ffbac, 0xbfaacfc8820f03e1, 0xbfb15becacd3ad6a,
		0x3f98c05d4795a818, 0x3fb1bfb96f46e097, 0x3fa4b6249706aaac, 0x3fb0418190b46cbc,
		0x3fb9e06ca1945b50, 0xbfb470dd9e893724, 0xbfc0d695a6507b1c, 0xbfab40caad6f0ab0,
		0x3fb3e2daac67e7b1, 0xbfc267ef7cc890b0, 0x3fc52b6ed36f0360, 0x3f92399fe0dd97e0,
		0xbfa75a2dac5ae309, 0xbfb5d7458d77075e, 0xbfb06427a8d2c445, 0x3f948f0e807b1ac1,
		0x3fd0aec9fd3eda5b, 0x3fd6f50fabcf3ee9, 0xbfc640319211b1cf, 0xbfb6209249f17193,
		0x3fc42c77484fb115, 0x3fb1adf87666fae8, 0xbfc7beabb9fa44f5, 0x3fcbc7fa7552ab6e,
		0x3fc7c27cf8b2dfd9, 0xbfc2097fee23c6bd, 0xbfbb64afbe77338b, 0x3fab7b904e67b717,
		0xbfc09fafd054f208, 0x3fc9c6cca2fbc2ca, 0xbf910ff3a7e2d0e0, 0xbfb7c252c44564cb,
		0x3fd85c71e78128e2, 0xbfcd953a8b7be536, 0xbf97f482a8cddb98, 0x3fcb1429574d0e0d,
		0x3f939ed006cf2072, 0x3fa91870a92b227d, 0xbfc7527a120473c8, 0x3fb78ce2f60979b2,
		0x3fc8b7632997ee9e, 0xbfceaa2692a2fc46, 0x3fcc8c2d587b2d10, 0xbfcf454ace06fe29,
		0xbfa494eccff64250, 0x3fc78bfcbf853659, 0xbfb70a3362effa19, 0xbfa8f2cebbd257d7,
	}
)
