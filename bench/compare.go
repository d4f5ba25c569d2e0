package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readRecords loads every record of an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	for dec := json.NewDecoder(f); ; {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// compareFiles judges a change against its parent from two -out files of
// untraced runs, one row per workload × end-to-end metric, by the bounds
// this benchmark fixes and the measuring rule of the choosing-metrics
// guide (section 8):
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own interquartile spread exceeds the bound,
//     so neither "unchanged" nor "regressed" can be said — unless every
//     run of one side beats every run of the other;
//   - gain: the change wins at least nine tenths of the pairs (i-th run
//     against i-th run, ties counting for neither) and the medians differ
//     by more than the parent's interquartile range.
//
// It returns an error — the command exits 1 — on any regression or when
// the change fails a larger share of its ops than the parent.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3] spread\tchange median [q1, q3] spread\tchange\twins\tverdict")
	var bad []string
	for _, wl := range workloads {
		a, b := untraced(parent, wl.name), untraced(change, wl.name)
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t%d runs\t%d runs\t-\t-\tmissing\n", wl.name, len(a), len(b))
			continue
		}
		for _, m := range endToEnd {
			row := judge(m, values(a, m.Name), values(b, m.Name))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n", wl.name, m.Name, m.Unit,
				row.parent, row.change, row.delta*100, row.wins, row.pairs, row.verdict)
			if row.verdict == "REGRESSION" {
				bad = append(bad, wl.name+"/"+m.Name)
			}
		}
		if fa, fb := failedShare(a), failedShare(b); fb > fa {
			fmt.Fprintf(tw, "%s\tfailed ops\tshare\t%.4f\t%.4f\t-\t-\tMORE FAILURES\n", wl.name, fa, fb)
			bad = append(bad, wl.name+"/failed ops")
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(bad) > 0 {
		return errors.New("regressed: " + fmt.Sprint(bad))
	}
	return nil
}

func untraced(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 && !r.Quick {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

func failedShare(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(attempted)
}

// verdictRow is one judged workload × metric pairing.
type verdictRow struct {
	parent, change string
	delta          float64 // change of the median, as a share of the parent's; positive is worse
	wins, pairs    int
	verdict        string
}

func judge(m metricSpec, a, b []float64) verdictRow {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	row := verdictRow{
		parent: fmt.Sprintf("%.4g [%.4g, %.4g] %.3f", ma, q1a, q3a, spread(a)),
		change: fmt.Sprintf("%.4g [%.4g, %.4g] %.3f", mb, q1b, q3b, spread(b)),
		delta:  (mb - ma) / ma,
		pairs:  min(len(a), len(b)),
	}
	if m.Better == "higher" {
		row.delta = -row.delta
	}
	losses := 0
	for i := 0; i < row.pairs; i++ {
		switch {
		case better(b[i], a[i]):
			row.wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	allOf := func(x, y []float64) bool { // every x better than every y
		for _, xv := range x {
			for _, yv := range y {
				if !better(xv, yv) {
					return false
				}
			}
		}
		return true
	}
	iqr := q3a - q1a
	switch {
	case spread(a) > m.Bound && !allOf(a, b) && !allOf(b, a):
		row.verdict = "unresolved"
	case row.delta > m.Bound:
		row.verdict = "REGRESSION"
	case row.wins*10 >= (row.wins+losses)*9 && row.wins > 0 && better(mb, ma) && (mb-ma)*(mb-ma) > iqr*iqr:
		row.verdict = "gain"
	default:
		row.verdict = "ok"
	}
	return row
}
