package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tlbprefetch/internal/stats"
)

// fixtureGrids are the grids behind the pinned cells of
// TestStoreKeysAndPayloadsStable: the functional 16-cell smoke grid plus a
// 2-cell default-timing grid.
func fixtureGrids() []Grid {
	return []Grid{
		{
			Workloads:  []string{"swim", "mcf"},
			Mechs:      []Mech{{Kind: "DP", Rows: 256, Ways: 1, Slots: 2}, {Kind: "RP"}},
			TLBEntries: []int{64, 128},
			Buffers:    []int{8, 16},
			Refs:       20_000,
		},
		{
			Workloads:  []string{"swim"},
			Mechs:      []Mech{{Kind: "none"}, {Kind: "RP"}},
			Refs:       20_000,
			TimingAxes: TimingAxes{MissPenalties: []uint64{100}},
		},
	}
}

// pinnedCells maps each fixtureGrids cell's key hash to the fingerprint of
// its full Result (key, stats and timing), as a schema-3 binary stored it.
var pinnedCells = map[string]string{
	"01067a7c884321adb43358704e7f357c91e1fe7eef639006395a6d80baa1b4fc": "11d2dfca9a442c58ca50731909f4881a29a7dd7b59eb9970985b7e6545fd203e",
	"02dcbed2362055c0b99ec0ec6aad09088b50bfbda7fea7630d57333471f5df11": "f17348f2372c54f821157b422eac8adae31c1ec82da2f3587c83d04b0c488974",
	"05a8f60983c87ec1191ed7126ee70c84912b64a6eaa03149907a866b5cd32c77": "77217de88eb4bae64fc2fbe7403d8e2168e8a0a6271b3710a9d0d2795ffeccfb",
	"10dcb5b73d625a8453f56ec2f2c1088a5a49e6a92484de31bc33cb4d3ddc5c66": "0a58ecacefff30636e6e5157257512cc42bc35025718d2d74b2c914ecb179db3",
	"12c84a7d11a6abf41fddb138c41b01db13d4b716006d6490ab77214383ba1350": "44c9fe23c0f95976701283ce3b9d3ced626e27e41bbad23786906aab954edb4b",
	"264a0fca2101501208d18a6a79f6a4b92f3c51c0f80e68c5f1dd0789a74f2be5": "09aa12e5ca92b9991d43c1f35d05a14012bbc472dd88d2eb4c4668bffb8f5f88",
	"38b420b6343b89a57a07843c256d2ade401c776c806f14d339116a8c41564586": "63c96ea94d7dc8106df706b8f4f245d1d963a069f69ea281860f8c5b49d03c09",
	"3cafc9eaa03c5d7ac36b5b86086a11e622adc3290cadbc2d7d75a4284ae4c927": "3d37c01b2dea86e5dde908c896615caa0e1dd27b319b9c5c9e43ce041a24a854",
	"4873b6e57996b6103537faadc9505d7eb0d7c5a45d2352d76a0f47949b22a44f": "3b1992c463179f2ae3ccb61ba7488339eb130f0f4f491207e4a788075ee09014",
	"6c919f19403a2cc1bbda70419528b8a543ec7a55be5e5c223ee3a64bce9beec8": "2cc81b9b2ee281c24e4be57da755d815a66d2aad302e497525b82a9eab8c83e3",
	"8561190936dc2ef71eb2d25436e57508fa1130bb4cbd1d67c323d4d65c72d2b1": "8d320f4e4a37d7239b1b5f317ac980a3e691ed8086f7e548a2fe1a5842aa5a7a",
	"99223a6823405e024377f1e50a1b4a8448d8ca7e1cc713dad449b1df9b1b3168": "4b788cfe9fd5b8e5d47f98f599877f35cd45e9a054a97277a85dceb7aaa8f552",
	"a90b09b2c7a143a5a67f084c60a47f3076d03cc64f94915f135aa7a8f9c238c3": "d52e8b900b9a815192a5e9b44b6f3b493ea8e74b5f590b00f18f3966377eb614",
	"a9a22d7b676b484d269e9b6e67a5fe510f4d9f5b969231b278e2fdefefbf4778": "75049ff346834b6a6d3aae043d0e784c89852e5b9acbf0c7a2ad36977ef16a9c",
	"aac7651ae671140291be9cb0cfd69c3dc6a1e77ce518a0af384c90fd3d7c2a24": "215c8f76492fb54fa9e61c033a0a270efd90e22769010fbb371603d2a73025b6",
	"dcb58f5858fc14be65fbd520ba2d8a3e0c6cfb23056d7a29e165710c06e160ee": "9b3c870357547ae462081ccfa235a7b0207bcb1efc7fcc71e7dd76aa70d07d32",
	"de2bdc88648697b1a5b9e5efefc464fd390c2bf510f5adf6004009e51861cb0b": "2be3634207a8288d8eee18c0a3a19d5674e7f115347fb4bc5eb0235120c389a5",
	"f0b75bad7f824a6c7ed6e40102f0120f2561f3f1900e66acda9813a2fccef1ab": "026a00299670b8aa58a7cd000e4bfdaa3fec6df4d98dce5cb5267f08de7b0ccd",
}

// TestStoreKeysAndPayloadsStable is the cross-binary guard: a store an
// older binary committed is only a cache hit if today's keys hash to the
// same addresses, and only correct if today's simulation reproduces the
// stored numbers. A fresh run of fixtureGrids must produce exactly the
// pinned hashes, each with the pinned payload fingerprint. A failure here
// means the key layout or the simulator changed: bump KeySchema.
func TestStoreKeysAndPayloadsStable(t *testing.T) {
	got := make(map[string]string)
	for _, g := range fixtureGrids() {
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := (&Runner{}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			fp, err := stats.Fingerprint(r)
			if err != nil {
				t.Fatal(err)
			}
			got[r.Key.Hash()] = fp
		}
	}
	var hashes []string
	for h := range pinnedCells {
		hashes = append(hashes, h)
	}
	for h := range got {
		if _, ok := pinnedCells[h]; !ok {
			hashes = append(hashes, h)
		}
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		want, pinned := pinnedCells[h]
		fp, ran := got[h]
		switch {
		case !ran:
			t.Errorf("pinned cell %.12s… no longer produced (key layout changed?)", h)
		case !pinned:
			t.Errorf("fresh cell %.12s… is not pinned (key layout changed?)", h)
		case fp != want:
			t.Errorf("cell %.12s…: payload fingerprint %.12s…, pinned %.12s… (simulator changed?)", h, fp, want)
		}
	}
}

// wantMonolithicRejected asserts that OpenStore refuses path with the one
// error every monolithic file gets: it names the path and the schema and
// says what to do.
func wantMonolithicRejected(t *testing.T, path string, schema int) {
	t.Helper()
	_, err := OpenStore(path)
	if err == nil {
		t.Fatalf("monolithic store %s opened without error", path)
	}
	for _, want := range []string{
		path,
		fmt.Sprintf("(schema %d)", schema),
		"monolithic layout unsupported: delete it or choose another -store",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestFutureSchemaRejected pins the rejection of every file OpenStore
// cannot read: a monolithic file from a future schema and one from the
// current schema both get the monolithic error.
func TestFutureSchemaRejected(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		schema int
		body   string
	}{
		{99, `{"schema": 99, "results": {}}`},
		{3, `{"schema": 3, "binary": "(devel)", "results": {}}`},
	} {
		path := filepath.Join(dir, "store.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		wantMonolithicRejected(t, path, tc.schema)
	}
}
