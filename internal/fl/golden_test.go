package fl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/gs"
)

// fingerprint folds a whole run into one FNV-64a hash: every RoundEvent
// scalar of every round (floats by bit pattern, so the NaN placeholders
// count), the per-client contribution counts, and the final weights. The
// literal 0 and 0.0 sit where the removed stale-slice count and folded
// residual norm were hashed, so every hash taken before still holds.
func fingerprint(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putInt := func(v int) { put(uint64(int64(v))) }
	putF := func(f float64) { put(math.Float64bits(f)) }
	putInt(len(res.Stats))
	for _, st := range res.Stats {
		for _, v := range []int{st.Round, st.K, st.DownlinkElems, st.Participants, st.Population,
			st.CohortSize, st.ChurnEvents, 0, st.WindowDepth, len(st.PerClientUsed)} {
			putInt(v)
		}
		for _, f := range []float64{st.KCont, st.RoundTime, st.Time, st.Loss, st.TestAcc,
			st.TestLoss, st.TrainLoss, 0.0} {
			putF(f)
		}
		for _, u := range st.PerClientUsed {
			putInt(u)
		}
		put(st.WALAppends)
		put(st.WALSnapshots)
	}
	for _, p := range res.Final.Params() {
		putF(p)
	}
	return h.Sum64()
}

func goldenChurn(round int) (join, leave []int) {
	switch round {
	case 3:
		return nil, []int{0, 5}
	case 5:
		return []int{5}, []int{7}
	}
	return nil, nil
}

func goldenDropout(client, round int) bool { return round%4 == 0 && client%2 == 1 }

// TestEngineGoldenTrajectories pins absolute trajectories: every other
// engine test compares one run of this binary with another, so a change
// that moved all of them together would pass unseen. The hashes were
// produced by the engine as it stood before the synchronous and the
// bounded-staleness loops were folded into one pipeline, and must not
// change with the worker count.
func TestEngineGoldenTrajectories(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes were taken on amd64: Go fuses multiply-add on arm64 and others, and the repo makes no cross-architecture bit-identity claim")
	}
	adaptive := func(c *Config) {
		d := c.Model().D()
		c.Controller = core.NewAdaptiveSignOGD(10, float64(d), float64(d), 1.5, 5, nil)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   uint64
	}{
		{"fab", func(c *Config) {}, 0xf31664fbd8b4187a},
		{"fub", func(c *Config) { c.Strategy = gs.FUBTopK{} }, 0x72c44828bc424d9e},
		{"uni", func(c *Config) { c.Strategy = gs.UniTopK{} }, 0x6de7327cb7dbaf94},
		{"periodic", func(c *Config) { c.Strategy = gs.PeriodicK{} }, 0x70fd7c12544ed690},
		{"sendall", func(c *Config) { c.Strategy = gs.SendAll{} }, 0x4103a92b0909854d},
		{"cohort=4", func(c *Config) { c.Cohort = 4 }, 0x60e5de48d98cc3e1},
		{"cohort=3", func(c *Config) { c.Cohort = 3 }, 0x60c7815ddbe1b5f9},
		{"churn+dropout", func(c *Config) { c.Churn, c.Dropout = goldenChurn, goldenDropout }, 0xa02153c8ce0fb3b1},
		{"quant=8", func(c *Config) { c.QuantBits = 8 }, 0x3ce41704b1597900},
		{"adaptive+probe", adaptive, 0xec4fd00113a55b},
		// The windows, every upload joining its own round's seal as on
		// every wire deployment. These hashes were taken later than the
		// rows above, at the engine just before its lateness model went.
		{"staleness=1", func(c *Config) { c.Staleness = 1 }, 0x8f18f8e7deaf7757},
		{"staleness=2", func(c *Config) { c.Staleness = 2 }, 0xed6474df57c75fec},
		{"staleness=1/periodic+quant", func(c *Config) {
			c.Strategy, c.QuantBits, c.Staleness = gs.PeriodicK{}, 8, 1
		}, 0x3c781419cfe63405},
		{"staleness=2/sendall", func(c *Config) { c.Strategy, c.Staleness = gs.SendAll{}, 2 }, 0xc414e1edbd928faa},
		{"staleness=1/adaptive+cohort=6", func(c *Config) {
			adaptive(c)
			c.Staleness, c.Cohort = 1, 6
		}, 0x7581856183a836f3},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 4} {
			cfg := diffConfig()
			tc.mutate(&cfg)
			cfg.Workers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if got := fingerprint(res); got != tc.want {
				t.Errorf("%s workers=%d: fingerprint %#x, want %#x", tc.name, workers, got, tc.want)
			}
		}
	}

	// The durable engine, halted and resumed: the resumed run's Result
	// covers every round (the prefix replayed from the log).
	const wantDurable = uint64(0xa1720bc4fbc67555)
	for _, workers := range []int{0, 4} {
		dir := t.TempDir()
		cfg := durableConfig(dir)
		cfg.Workers = workers
		cfg.HaltAfter = 9
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		cfg = durableConfig(dir)
		cfg.Workers = workers
		cfg.Resume = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res); got != wantDurable {
			t.Errorf("wal-halt-resume workers=%d: fingerprint %#x, want %#x", workers, got, wantDurable)
		}
	}
}
