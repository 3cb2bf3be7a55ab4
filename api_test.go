package fedsparse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"fedsparse"
)

// The facade tests exercise the public API exactly as a downstream user
// would — construction through the root package only.

func TestPublicAPIEndToEnd(t *testing.T) {
	fed := fedsparse.GenerateFEMNIST(fedsparse.FEMNISTConfig{
		NumClients:       5,
		NumClasses:       62,
		Dim:              32,
		SamplesPerClient: 30,
		ClassesPerClient: 5,
		TestSamples:      100,
		Noise:            0.4,
		StyleShift:       0.2,
		Seed:             3,
	})
	model := func() *fedsparse.Network { return fedsparse.NewMLP(32, []int{10}, 62) }
	d := model().D()

	res, err := fedsparse.Run(fedsparse.Config{
		Data:         fed,
		Model:        model,
		LearningRate: 0.1,
		BatchSize:    8,
		Rounds:       40,
		Seed:         9,
		Strategy:     &fedsparse.FABTopK{},
		Controller:   fedsparse.NewAdaptiveSignOGD(5, float64(d), float64(d), 1.5, 10, nil),
		Beta:         10,
		EvalEvery:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 40 {
		t.Fatalf("rounds = %d", len(res.Stats))
	}
	if res.Stats[39].Loss >= res.Stats[0].Loss {
		t.Fatalf("no learning: %.3f -> %.3f", res.Stats[0].Loss, res.Stats[39].Loss)
	}
	xs, ys := fed.Test.XY()
	if acc := res.Final.Accuracy(xs, ys); math.IsNaN(acc) {
		t.Fatal("final model unusable")
	}
}

func TestPublicAPIStrategies(t *testing.T) {
	// Every exported strategy satisfies the exported interface.
	strategies := []fedsparse.Strategy{
		&fedsparse.FABTopK{},
		fedsparse.FUBTopK{},
		fedsparse.UniTopK{},
		fedsparse.PeriodicK{},
		fedsparse.SendAll{},
	}
	names := make(map[string]bool)
	for _, s := range strategies {
		if names[s.Name()] {
			t.Fatalf("duplicate strategy name %q", s.Name())
		}
		names[s.Name()] = true
	}
}

func TestPublicAPIControllers(t *testing.T) {
	controllers := []fedsparse.Controller{
		fedsparse.NewFixedK(10),
		fedsparse.NewSignOGD(2, 100, 50, nil),
		fedsparse.NewAdaptiveSignOGD(2, 100, 50, 1.5, 5, nil),
		fedsparse.NewValueOGD(2, 100, 50),
		fedsparse.NewEXP3(2, 100, 0.1, 100, newAPIRand(1)),
		fedsparse.NewContinuousBandit(2, 100, 50, 100, 0, 0, newAPIRand(2)),
		&fedsparse.ThresholdK{Before: 100, After: 10, Threshold: 1},
	}
	for _, c := range controllers {
		d := c.Decide(1)
		if d.K <= 0 {
			t.Fatalf("%s: non-positive k %v", c.Name(), d.K)
		}
		c.Observe(fedsparse.Observation{Round: 1, K: d.K, RoundTime: 1,
			LossPrev: 1, LossCur: 0.9, LossProbe: math.NaN()})
	}
}

func TestPublicAPISparseAndCost(t *testing.T) {
	v := fedsparse.TopK([]float64{3, -1, 0.5, -7}, 2)
	if v.Len() != 2 || v.Idx[0] != 3 || v.Idx[1] != 0 {
		t.Fatalf("TopK via facade = %+v", v)
	}
	cm := fedsparse.NewCostModel(1000, 10)
	if got := cm.RoundTime(1000, 1000); math.Abs(got-11) > 1e-12 {
		t.Fatalf("cost model via facade = %v", got)
	}
	if k := fedsparse.StochasticRound(5, newAPIRand(3)); k != 5 {
		t.Fatalf("StochasticRound(5) = %d", k)
	}
}

func TestPublicAPIWorkloadsAndMetrics(t *testing.T) {
	w := fedsparse.NewFEMNISTWorkload(fedsparse.ScaleTiny)
	if w.D <= 0 || w.Data.NumClients() == 0 {
		t.Fatal("workload construction broken")
	}
	cdf := fedsparse.CDF([]float64{1, 2, 3})
	if cdf.Len() != 3 {
		t.Fatal("CDF via facade broken")
	}
	var tb fedsparse.Table
	tb.Headers = []string{"a"}
	tb.AddRow("1")
	if tb.Render() == "" {
		t.Fatal("table render empty")
	}
}

// TestFacadeExports holds the facade's exported names to the committed
// testdata/facade_exports.txt, one "kind Name" per line, sorted. There is
// no update flag: an export that appears or goes is a reviewed edit of
// that file.
func TestFacadeExports(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fedsparse.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	add := func(kind string, id *ast.Ident) {
		if id.IsExported() {
			got = append(got, kind+" "+id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("func", d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add("type", sp.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(d.Tok.String(), id)
					}
				}
			}
		}
	}
	slices.Sort(got)
	golden, err := os.ReadFile("testdata/facade_exports.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("%s is exported but not in testdata/facade_exports.txt", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("%s is in testdata/facade_exports.txt but not exported", name)
		}
	}
	if !t.Failed() && !slices.Equal(got, want) {
		t.Errorf("testdata/facade_exports.txt is not sorted:\n%s", strings.Join(got, "\n"))
	}
}
