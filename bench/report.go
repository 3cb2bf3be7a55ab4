package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// outDir is where a run leaves its artefacts (git-ignored).
const outDir = "bench/out"

// report prints every metric by name and unit, above the result line.
func (m *measurement) report(w io.Writer, res result) {
	sh := m.sh
	fmt.Fprintf(w, "# %s  seed=%d  D=%d  clients=%d  k=%d  rounds=%d  repetitions=%d untraced + %d traced\n",
		sh.Name, m.seed, sh.dim(), sh.Clients, sh.k(), sh.Rounds, len(m.timed), len(m.traced))
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s linux %s %s\n",
		m.host.NumCPU, m.host.GOMAXPROCS, m.host.GoVersion, m.host.Kernel, m.host.Date)
	pooled := 0
	for _, rep := range m.timed {
		pooled += rep.rounds()
	}
	fmt.Fprintf(w, "# round times pooled over %d rounds\n", pooled)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-48s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, why := range m.why {
		fmt.Fprintln(w, "# INCORRECT:", why)
	}
}

// writeOut records the run under bench/out: the result with the host
// facts and the generated shape beside it, and the last traced
// repetition's spans plus the walk's as trace-<workload>.json.
func (m *measurement) writeOut(res result, traced bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	record := struct {
		Host        hostFacts `json:"host"`
		Shape       shape     `json:"shape"`
		D           int       `json:"d"`
		K           int       `json:"k"`
		Seed        int64     `json:"seed"`
		Repetitions int       `json:"repetitions"`
		Result      result    `json:"result"`
	}{m.host, m.sh, m.sh.dim(), m.sh.k(), m.seed, len(m.timed), res}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", m.sh.Name, kind)), record); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	var spans []span
	if n := len(m.traced); n > 0 {
		spans = assembleTrace(m.traced[n-1].obs, m.traced[n-1].conns)
	}
	spans = append(spans, m.walk.spans...)
	return writeJSON(filepath.Join(outDir, fmt.Sprintf("trace-%s.json", m.sh.Name)), spans)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
