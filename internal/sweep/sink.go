// Structured result sinks. All sinks receive results in cell-index order
// (the engine reorders completions), so their output is reproducible across
// worker counts; only the wall_ns field varies between runs.
package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Sink consumes a stream of results. Emit is called in cell-index order and
// never concurrently; Close flushes buffered output.
type Sink interface {
	Emit(Result) error
	Close() error
}

// JSONLSink writes one JSON object per result per line.
type JSONLSink struct {
	enc *json.Encoder
}

// NewJSONL returns a JSON-lines sink over w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(r Result) error { return s.enc.Encode(r) }

// Close implements Sink (the encoder does not buffer).
func (s *JSONLSink) Close() error { return nil }

// csvHeader fixes the CSV column order. wall_ns is last so determinism
// comparisons can strip a single trailing column.
var csvHeader = []string{
	"index", "workload", "variant", "threads", "seed", "geometry",
	"cycles", "total_core_cycles", "nontx_cycles", "committed_cycles", "wasted_cycles",
	"commits", "aborts", "instructions", "labeled_ops",
	"gets", "getx", "getu", "reductions", "gathers", "splits", "nacks",
	"digest", "err", "wall_ns",
}

// CSVSink writes one row per result, with a header row. The header is
// written lazily on the first Emit — never at construction — so an empty
// sweep writes nothing.
type CSVSink struct {
	w     *csv.Writer
	wrote bool
}

// NewCSV returns a CSV sink over w.
func NewCSV(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// Emit implements Sink.
func (s *CSVSink) Emit(r Result) error {
	if !s.wrote {
		s.wrote = true
		if err := s.w.Write(csvHeader); err != nil {
			return err
		}
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	geom := r.Geometry.Label
	if geom == "" && !r.Geometry.IsDefault() {
		geom = fmt.Sprintf("l1=%d/%dw,l2=%d/%dw",
			r.Geometry.L1Bytes, r.Geometry.L1Ways, r.Geometry.L2Bytes, r.Geometry.L2Ways)
	}
	st := r.Stats
	if err := s.w.Write([]string{
		strconv.Itoa(r.Index), r.Workload, r.Variant.Label,
		strconv.Itoa(r.Threads), u(r.Seed), geom,
		u(st.Cycles), u(st.TotalCoreCycles), u(st.NonTxCycles), u(st.CommittedCycles), u(st.WastedCycles),
		u(st.Commits), u(st.Aborts), u(st.Instructions), u(st.LabeledOps),
		u(st.GETS), u(st.GETX), u(st.GETU), u(st.Reductions), u(st.Gathers), u(st.Splits), u(st.NACKs),
		r.Digest, r.Err, strconv.FormatInt(r.WallNS, 10),
	}); err != nil {
		return err
	}
	// encoding/csv buffers rows and defers underlying-writer errors to
	// Flush, so a Write alone reports success even after the output file has
	// died. Flush each row and surface w.Error() here so the engine's
	// sink-error path (and FailFast callers) abort mid-sweep instead of
	// discovering the dead file at Close.
	s.w.Flush()
	return s.w.Error()
}

// Close implements Sink.
func (s *CSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}

// TableSink renders an aligned text table of cells as they complete, in the
// same spirit as the harness figure tables but one row per cell.
type TableSink struct {
	out   io.Writer
	wrote bool
	err   error
}

// NewTable returns a text-table sink over w. Like the CSV sink, the header
// row is written on first Emit, exactly once.
func NewTable(w io.Writer) *TableSink { return &TableSink{out: w} }

// Emit implements Sink.
func (s *TableSink) Emit(r Result) error {
	if s.err != nil {
		return s.err
	}
	if !s.wrote {
		s.wrote = true
		_, s.err = fmt.Fprintf(s.out, "%-12s %-18s %8s %6s %14s %10s %8s  %-16s %s\n",
			"workload", "variant", "threads", "seed", "cycles", "commits", "aborts", "digest", "err")
		if s.err != nil {
			return s.err
		}
	}
	_, s.err = fmt.Fprintf(s.out, "%-12s %-18s %8d %6d %14d %10d %8d  %-16s %s\n",
		r.Workload, r.Variant.Label, r.Threads, r.Seed,
		r.Stats.Cycles, r.Stats.Commits, r.Stats.Aborts, r.Digest, r.Err)
	return s.err
}

// Close implements Sink.
func (s *TableSink) Close() error { return s.err }
