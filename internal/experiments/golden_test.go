package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenDigests pins every registered experiment's Result at goldenOpts, so
// a refactor of the harness that moves a single bit of any figure fails
// here. Regenerate only for an intended change of the numbers, from the
// digests this test reports.
var goldenDigests = map[string]string{
	"abl-count":  "6b3a3d4ac8fd6d251f8d5e1198fee0a29dac1e223baaff460f632092a438592e",
	"abl-rep":    "f7e9020cdb22a49068f708509308f8b893ddd03eba27a7cb58f1322112607766",
	"abl-rule":   "644810d8de49110f566a789ce8e1aa7218125bbf7990069d0d702a33bb1fcd9c",
	"alpha":      "3fb9cea14f5a4e7173f1b295c59f53f3ecd19b7730a22b66b3ed9573e8776ea6",
	"burst":      "46d96879c5fe2ea6cf9875d886199e0694869f8ec3372be0b56bdd4e96789e0a",
	"cache":      "ddff7f2056b6f4f17376aec96fb00239983ab7ea166b9aaae518454acc470ccb",
	"dep-split":  "f28bb1b9c69174a248d2ed18dc76efda989b64b0a6db2f02ad8226041bbda8b9",
	"domino":     "f0af3efb38d42d27259d4f3570ab0e110c1ad7776fd68dd52670e6cf875276c2",
	"fig10":      "5928f5f52731cb5ba993ff1483034a579fc7c4315681eecdbec79d4a698a28ba",
	"fig11":      "7a7cf646e7eba8a7f4e467985021b0412d663bf32a50b670bf4844f68f6fb977",
	"fig12":      "1cb81044c49044d38f78e60d43342dc472087d750a92be157c7c60b67fe25460",
	"fig13":      "35d39bba3af4da9eb103a55ad90eb2d442f83e02ca78233ab76e5010022aec77",
	"fig14":      "1aa5288f753ea750aff74140312982bb2d8f48f0a8476a958e3741c462ebc654",
	"fig15":      "54a7a7aba82befe3c13061437ee344fb12debb62e5d9015a1f11bea47a9267e3",
	"fig15x":     "5f72fbf2f953bd3bdfc3a6f893add87a8697710b020032701d0bc08e068e7001",
	"fig16":      "019ea294034fa84108b98d0387e1fc731defee78801821dec8d8a1b3fe5d3215",
	"fig17":      "5c6210b9fd215340948b1ccb7811169351216352dfb0f7535a6f0ea16df0b027",
	"fig8":       "6c40f5a71263befd83874b21e4dafd4b46e534165f6134bc1e27406515045449",
	"fig9":       "76f134b5dd777339c245a6475fed312ece8c4cd1b88cbf1655147d3c9dfd49df",
	"hitratio":   "018f4792225dfa220f0d30a6b971034b080b0eb9d84da171e58832e4ae65b27e",
	"mserver":    "3e6bf62da184713f77922570d8d8ca55fe5379236e2a0979a2cdcbba6e036d4e",
	"sessions":   "dc3006fdfba0b6781dea783a4b5fcbec5276f3cefdeb2d7be50e489c26461c35",
	"structural": "6503cbf3d2eae5f586c420bf88a0247fb46f48350e47d9b6f405f883e936236e",
	"tab1":       "9d3a62aac09bc5c61d829ef0ab7ead98dd840c5b4cc578a5689f1cb2bb069bca",
	"wf-len":     "4d9d4509a28cc925905e0da1ae9bd9421bd9783a4691b5a57e6e743a7cdb1a51",
	"wf-mem":     "2edc1cf989856ff91527cb5226066c37fe47d463b5979b6d6a73de7e98846ba2",
}

// goldenOpts is small enough to run every experiment in seconds, with
// validation on and more than one worker so the pool path is exercised.
func goldenOpts() Options {
	return Options{N: 200, Seeds: DefaultSeeds[:2], Validate: true, Parallelism: 2}
}

// resultDigest hashes a Result's ID, x-axis, every series' name, Y and error
// bars (as IEEE bits), and its observations.
func resultDigest(res *Result) string {
	h := sha256.New()
	str := func(s string) {
		_ = binary.Write(h, binary.LittleEndian, uint64(len(s)))
		h.Write([]byte(s))
	}
	floats := func(xs []float64) {
		_ = binary.Write(h, binary.LittleEndian, uint64(len(xs)))
		for _, x := range xs {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	str(res.Figure.ID)
	floats(res.Figure.X)
	for _, s := range res.Figure.Series {
		str(s.Name)
		floats(s.Y)
		floats(s.Err)
	}
	for _, o := range res.Observations {
		str(o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenExperimentDigests runs every registered experiment at
// goldenOpts and compares its Result digest to the pinned one.
func TestGoldenExperimentDigests(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			res, err := Registry[id](goldenOpts())
			if err != nil {
				t.Fatal(err)
			}
			got, want := resultDigest(res), goldenDigests[id]
			if got != want {
				t.Errorf("%s: digest %s, pinned %q", id, got, want)
			}
		})
	}
}
