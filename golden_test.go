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
		0x3ff7ff13e0ac93c9, 0x3ff8047cd63d3bac, 0x3ff644eb596da6a8, 0x3ff613ded89e0b94,
		0x3ff61ce2206d9607, 0x3ff6050ecc549533, 0x3ff6194f36efd391, 0x3ff5fc74600d4d4a,
		0x3ff61135edbc7f12, 0x3ff5f25703426d04, 0x3ff5d4d6ec601888, 0x3ff54b0020cda352,
		0x3ff5c489cab66ea5, 0x3ff4f038068ad2b9, 0x3ff4da3aa9b381ad, 0x3ff4ed0429bc590c,
	}
	goldenLocalEmb = []uint64{
		0x3fb48659e42665fb, 0x3fa8d560e988f141, 0x3f9985658c42e36a, 0xbfc4d640baccff95,
		0x3fc69104546e3f34, 0xbfa70aeb0466ee9e, 0xbfbc864873ac7368, 0xbf8668b17401d0aa,
		0xbfd6d993b06478c8, 0xbfc711cf7b016d18, 0x3fabcb74b85302b2, 0x3fa1fa518ccf16a6,
		0xbfc4b749401641ab, 0x3fae87e03c6702cb, 0xbfa4c4287e084778, 0xbfc1a75cbdb6fdbe,
		0x3fd3c4731c3bbd91, 0xbfbe6944e985d369, 0xbfb6af4bff350ed8, 0x3fc0f8bbcdd1a756,
		0xbfc2aff1640613ee, 0x3fc0c9ca29302650, 0x3fce0a6bc58bb58e, 0x3fb8df129f889768,
		0xbfc66468f0522c93, 0xbfbd1c0a81f414ae, 0x3fb873d09b7cf5d5, 0xbfabff52924d875a,
		0xbf3002b2dd9e8ca0, 0x3fc88bcc937a1105, 0x3f9925af069031c2, 0xbfb64d38603c03ab,
		0x3fb8270a8ee286be, 0xbfb1ff6b967d07e1, 0xbfc36a2dd9d02128, 0xbfccb3499d321fe6,
		0xbfb946d3129bc003, 0x3fbbb3a4aefd9b5c, 0x3f90d126396e5ac4, 0xbf912065715350a3,
		0x3fc16314c39507a2, 0x3fa38b542e7a7d7b, 0xbfb299e06695c29f, 0x3f9b5fd3c4f8c58d,
		0xbfceb1d51f5f7088, 0xbfb2dc4f8e23a962, 0xbfbd6f288f3d8932, 0xbfa599b0d1c3b0dd,
		0xbfb36c88b0a73325, 0x3fb552ac3ca5634e, 0xbfb085d01ca66fd2, 0xbfb4c176d7f8367b,
		0x3f95a0d8a5416373, 0xbf8ca8b9fdc1dfd0, 0x3fce9252b562687b, 0xbfc86913c19c1da9,
		0x3fa00637b4f7ee60, 0xbfb0fa8df73a4c48, 0x3fb5eb744591c918, 0x3f95fae348e38a27,
		0xbfb234209a5127f6, 0xbfb680f530d3f548, 0xbfa3bd767e8fbe26, 0xbf8025847fc29c98,
		0x3fc96308f965edef, 0xbfa442443e098014, 0xbfc100403b6e6554, 0xbfc855b0f3410bd6,
		0x3fb295ec086e5961, 0x3fd2a1babd870296, 0xbfb693c6f14bfe86, 0xbfc8f1ff2fbe3a5f,
		0x3fa429d14385a26a, 0xbfcb000832d297b1, 0x3fcde4769a028e5c, 0xbfc4e81ddd62a368,
		0xbf77e4618ba2c5fc, 0xbfa87ececc8f815e, 0xbfbdc023a282352a, 0xbfc0d522f89f5ba8,
		0xbfbe49c145f0551c, 0x3fa24dd5691738c2, 0xbfd92cc735199fae, 0xbfcc64264cc765ea,
		0x3fd0f08bae1a8525, 0x3fc3b9eb5c60c093, 0x3fd302e5a22cbb9e, 0x3fbc995c4b226374,
		0x3fd155fddbb0d926, 0xbfd69cceb91bb3b8, 0xbfc049800e5a850f, 0x3fa5222675f849ae,
		0xbfb381c65cfa2f1e, 0x3fcb2cc055ba54b1, 0x3fb4aef680420539, 0xbf7994b79e3622cc,
	}
	goldenClusterLosses = []uint64{
		0x3ff83e8267470fa6, 0x3ff804cc5a064190, 0x3ff65c9bd14ef6ee, 0x3ff619b31aee8e64,
		0x3ff6766ebf26a164, 0x3ff5eb157949e787, 0x3ff62cd06853dd40, 0x3ff5f7b62868a47d,
		0x3ff61425a89c7c8c, 0x3ff5840f8e16cba2, 0x3ff5be6499fc309c, 0x3ff5cc9831ff1dc8,
		0x3ff584cb4cb983b0, 0x3ff57f410d0bd39c, 0x3ff4e3db8a2ff054, 0x3ff564c357f717ed,
	}
	goldenClusterEmb = []uint64{
		0x3f9637f108e5e849, 0xbfbadfeed1388e1f, 0x3fbe475530a42e39, 0x3fb04644d5ce00cf,
		0x3f9eb7492cd7ad06, 0xbfb285ef5d3b3ab4, 0xbfb5e1f8d2655987, 0xbfc54c18337e9ff2,
		0xbfd213c7f5512334, 0x3f5956d2082f9d98, 0xbfa87b7dd0e60314, 0xbf8ccf0b05f84ff8,
		0xbfb67c387b325a32, 0xbfbef3ff37ce3ee2, 0x3fafb63015bed317, 0xbfb36bc53055b86d,
		0x3fbc65448ad90815, 0x3fb689b61dc979cb, 0x3fafb87d0d3c539b, 0xbfbad848327425d4,
		0xbfbe5ee659ee52fa, 0x3fb831fa136cd046, 0x3fc858003668c130, 0xbf99de5f241dcb28,
		0xbfc995e0bff1a46d, 0xbf919de3c2805854, 0xbfba2417c51467d0, 0x3fa3eac83427010d,
		0x3fbe4b8ce67fc0cd, 0xbf8bee650e70c2b9, 0xbf922ea1a7af218c, 0x3fb6ba6090ede5a9,
		0x3fc60c33c400535c, 0x3f857fc29e05beb8, 0xbfcfcaa6f1dd185c, 0xbfb79013cb5c6834,
		0xbfb0db7b7f49e299, 0x3fa0597cd7796ece, 0x3fb098c26273c624, 0x3fc6872905d991d4,
		0x3fc13c751e3d9438, 0x3fbc94751f525356, 0xbfcaa6859276d1b3, 0x3fbda152d5da9290,
		0xbfc0eed8adb8c66e, 0x3fa9b2d80ab56f6e, 0xbfb06d2921f9d5e2, 0xbf8938ed2324b664,
		0x3fa3becef6b92e14, 0xbfa15660ae470335, 0x3f6102116a71e5b0, 0x3fb156d887db32f0,
		0x3f453fe3c0442278, 0xbfb2dd6cb18ca989, 0xbfa2477792188a16, 0x3fc26a0fb3a45ec6,
		0x3fb40680d787d280, 0xbfcfe370a35ca440, 0x3fb69456acd1ab4c, 0x3fa7bcad7027cc66,
		0xbfb071b3f7c9ba8c, 0xbfbdfb4dc2d7ce10, 0x3f774bb529dcf920, 0x3fae0d05f1855deb,
		0x3fd277ef1659e12e, 0x3fc87b60b1f513bc, 0xbfc5bfedda7d59ca, 0xbfaa86ff37fb65f1,
		0x3fb94a29daf3951c, 0x3fc7672ec6ab4764, 0xbfc0377c0fbd65e9, 0xbfa33e7bc4626d1c,
		0x3fc36f503fcaaacd, 0xbfc421371f79111e, 0xbfa1fcd07724a92c, 0xbf860f5530046ba0,
		0xbfc62c661bde14a2, 0xbfa1cf130005ef81, 0xbfc6a57c14082497, 0xbfaeaf8f48840f98,
		0x3fb298b6bb81f0a1, 0x3f9535f1adc003ca, 0xbfd3f61ab1a91253, 0x3f9b4737769c04aa,
		0x3fc83f0d79313808, 0x3fb9a6503aa8637e, 0x3fb1fe9a37a3860f, 0x3fd3405f91e8d0b7,
		0x3fc6b0ce0d921a8d, 0xbfd961d843b2a93e, 0x3fbfd9002276be38, 0xbfb695dac90fcc87,
		0xbf98badaca4e5b54, 0x3fd120abef3ad973, 0xbfa83a0b16e90cc2, 0x3fb9b9bf8340b62d,
	}
)
