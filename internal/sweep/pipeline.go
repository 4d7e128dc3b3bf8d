// The staged sweep pipeline: expand → plan → execute → journal → merge →
// emit. Matrix.Cells is the expand stage; this file holds the rest as
// named, independently testable components:
//
//   - Plan deterministically partitions the expanded cell list into shards
//     by hashing each cell's Key, so any process planning the same cells
//     with the same shard count computes the same partition without
//     communicating.
//   - The execute stage (Engine.run, reached via Run / RunShard) runs one
//     shard's cells in-process exactly as the engine always has — same
//     scheduler, machine/input/snapshot arenas, affinity stealing, and
//     RunMetrics.
//   - The journal stage (Journal, over internal/sweep/journal) records each
//     completed Result keyed by Cell.Key as one JSONL line, so an
//     interrupted sweep resumes by skipping journaled cells instead of
//     restarting; a torn final record (crash mid-write) is truncated and
//     its cell re-run.
//   - Merge streams shard journals back into the plan's deterministic cell
//     order before the sinks (the emit stage, emitter) see a single row —
//     merged multi-shard output is byte-identical (modulo wall_ns) to a
//     single-process Engine.Run.
//
// Engine.Run is the degenerate composition: one shard, no journal, live
// ordered emit. cmd/commtm-bench's -shard/-shards modes are the
// multi-process composition over the same stages.
package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"commtm/internal/sweep/journal"
)

// Plan is the plan stage's output: a deterministic partition of the
// expanded cell list into shards. Assignment hashes each cell's Key — not
// its position — so it is stable across runs and processes, independent of
// how the matrix was iterated, and insensitive to cells being added to or
// removed from the matrix (surviving cells keep their shard). Plans
// require unique cell keys: the journal and merge stages key results by
// Cell.Key, so two cells sharing one would silently merge.
type Plan struct {
	Cells  []Cell // the expanded list, in deterministic cell order
	Shards int
	shard  []int // shard[i] is the shard of Cells[i]
}

// NewPlan partitions cells into shards (< 1 means 1). It fails on
// duplicate cell keys rather than let journal records collide.
func NewPlan(cells []Cell, shards int) (*Plan, error) {
	if shards < 1 {
		shards = 1
	}
	p := &Plan{Cells: cells, Shards: shards, shard: make([]int, len(cells))}
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		k := c.Key()
		if dup, ok := seen[k]; ok {
			return nil, fmt.Errorf("sweep: plan: cells %d and %d share key %s (journals key results by cell key; plans need unique keys)", dup, i, k)
		}
		seen[k] = i
		p.shard[i] = ShardOf(k, shards)
	}
	return p, nil
}

// Shard returns shard s's cells, in plan (deterministic cell) order.
func (p *Plan) Shard(s int) []Cell {
	var cells []Cell
	for i, c := range p.Cells {
		if p.shard[i] == s {
			cells = append(cells, c)
		}
	}
	return cells
}

// ShardOf deterministically assigns a cell key to one of n shards: FNV-1a
// over the key with a splitmix64-style finisher (FNV alone diffuses upward
// too slowly for a uniform reduction), reduced mod n. No RNG, no host
// state — every process agrees by construction.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}

// ParseShard parses a "-shard i/n" worker spec ("2/4" → shard 2 of 4).
func ParseShard(s string) (shard, shards int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		shard, err = strconv.Atoi(i)
		if err == nil {
			shards, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("sweep: bad shard spec %q (want i/n with 0 <= i < n)", s)
	}
	return shard, shards, nil
}

// ShardJournalPath names shard s-of-n's journal inside dir. The shard
// count is part of the name so a resume with a different shard count finds
// no stale journal to misread — partitions never silently mix.
func ShardJournalPath(dir string, s, n int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.jsonl", s, n))
}

// journalRecord is one journal line: a completed Result keyed by its
// cell's Key. The key is stored rather than recomputed on read so the
// journal is self-describing and key-derivation drift between writer and
// reader versions surfaces as a resume miss (a re-run) instead of a
// mis-merge.
type journalRecord struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// Journal is the journal stage: the sweep-side view of one shard's
// crash-durable record log. It appends each completed Result as one JSONL
// record and, on open, recovers the results an interrupted run already
// completed so the execute stage can skip them. A nil *Journal is valid
// and journals nothing.
type Journal struct {
	mu   sync.Mutex
	w    *journal.Writer
	done map[string]Result
	n    int
	err  error
}

// OpenJournal opens (creating if absent) the journal at path, truncating
// any torn final record — see package journal for the recovery contract.
func OpenJournal(path string) (*Journal, error) {
	w, recs, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{w: w, done: make(map[string]Result, len(recs))}
	for _, line := range recs {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			// Valid JSON that is not a journal record: a foreign or
			// older-format file. Recovering nothing from the line is safe —
			// its cell just re-runs.
			continue
		}
		j.done[rec.Key] = rec.Result
	}
	j.n = len(j.done)
	return j, nil
}

// ReadJournal reads the journal at path without opening it for writing and
// returns its results keyed by Cell.Key — the merge stage's input. A
// missing file is an empty journal.
func ReadJournal(path string) (map[string]Result, error) {
	recs, err := journal.Read(path)
	if err != nil {
		return nil, err
	}
	done := make(map[string]Result, len(recs))
	for _, line := range recs {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			continue
		}
		done[rec.Key] = rec.Result
	}
	return done, nil
}

// Done returns the results recovered at open, keyed by Cell.Key. The map
// is the execute stage's skip set; callers must not mutate it during a run.
func (j *Journal) Done() map[string]Result {
	if j == nil {
		return nil
	}
	return j.done
}

// Len returns the number of results this journal holds (recovered plus
// appended). Nil-safe.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the first append error, if any. A journal that stopped
// persisting makes the run non-resumable, so the execute stage surfaces
// this from RunShard. Nil-safe.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the journal file, returning the first append error if one
// occurred. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cerr := j.w.Close()
	if j.err != nil {
		return j.err
	}
	return cerr
}

// record appends one completed result. Called by concurrent workers; the
// append itself is serialized here, and the first failure sticks (later
// appends are dropped — the journal is already non-resumable).
func (j *Journal) record(r Result) {
	if j == nil {
		return
	}
	rec := journalRecord{Key: r.Key(), Result: r}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.w.Append(rec); err != nil {
		j.err = fmt.Errorf("sweep: journal: %w", err)
		return
	}
	j.n++
}

// ExecOptions configures one execute stage beyond the Engine's own fields.
// The zero value is a plain single-process run (what Engine.Run uses).
type ExecOptions struct {
	// Done maps Cell.Key → Result for cells an earlier, interrupted run
	// already completed (a journal's recovered records): the executor emits
	// these in order without re-running them — no machine is acquired, no
	// metrics move.
	Done map[string]Result
	// Journal, when non-nil, durably records every freshly completed Result
	// before it is emitted.
	Journal *Journal
	// Stop, when non-nil, is polled between cells; once it returns true,
	// workers stop claiming and the run returns with the unclaimed cells'
	// Results zero. The journal still holds everything that completed — a
	// stopped run is resumed exactly like a crashed one.
	Stop func() bool
}

// done returns the already-journaled result for c, rebound to c — the
// plan's cell carries what JSON cannot round-trip (Mk, Protocol)
// — or ok=false. A journaled result whose recorded index disagrees with
// the plan's is a foreign or stale journal; re-running the cell is the
// safe answer, so it reports ok=false too.
func (x ExecOptions) done(c Cell) (Result, bool) {
	r, ok := x.Done[c.Key()]
	if !ok || r.Index != c.Index {
		return Result{}, false
	}
	r.Cell = c
	return r, true
}

// RunShard is the execute stage over one shard of a plan: it runs the
// shard's cells exactly as Engine.Run would (same scheduler, arenas, and
// metrics), journaling each completed result to j and skipping cells j
// already holds — an interrupted shard resumes instead of restarting.
// stop, when non-nil, is ExecOptions.Stop. Results are in shard order (the
// plan's cell order restricted to the shard); e.Sinks, if any, see the
// shard's rows in that order — multi-shard callers leave the sinks to the
// merge stage instead.
func (e *Engine) RunShard(p *Plan, shard int, j *Journal, stop func() bool) (Results, error) {
	return e.run(p.Shard(shard), ExecOptions{Done: j.Done(), Journal: j, Stop: stop})
}

// RunSharded runs the whole staged pipeline in-process: plan partitions
// cells into shards, execute runs each shard sequentially (each exactly as
// Engine.Run would run it, sharing the engine's arenas and metrics),
// journal persists per-shard completions under dir (skipped when dir is
// empty), and merge streams the union back into deterministic cell order
// before e.Sinks see a single row. An interrupted run re-invoked with the
// same dir resumes: journaled cells are emitted without re-running. It
// exists for in-process sharding (tests, single-host splits);
// cmd/commtm-bench's coordinator mode is the multi-process composition.
func (e *Engine) RunSharded(cells []Cell, shards int, dir string) (Results, error) {
	p, err := NewPlan(cells, shards)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	done := make(map[string]Result, len(cells))
	for s := 0; s < p.Shards; s++ {
		var j *Journal
		if dir != "" {
			if j, err = OpenJournal(ShardJournalPath(dir, s, p.Shards)); err != nil {
				return nil, err
			}
		}
		sub := *e
		sub.Sinks = nil // the merge stage emits; shards do not stream
		rs, err := sub.RunShard(p, s, j, nil)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			done[r.Key()] = r
		}
	}
	return Merge(p.Cells, done, e.Sinks)
}

// Merge is the merge stage: it reorders completed results into the plan's
// deterministic cell order, rebinds each to its plan cell (identity,
// constructor, and protocol do not survive the JSONL round trip; Stats,
// digest, error, and wall time do), and emits every row to the sinks in
// that order — so a merged multi-shard sweep's sink output is
// byte-identical (modulo wall_ns) to a single-process Engine.Run of the
// same cells, and the merged Results can be re-run directly (the
// cross-shard gate, CheckShards, does exactly that). A cell with no
// completed result fails the merge: the sweep is incomplete — resume the
// shards rather than emit a partial matrix as if it were whole.
func Merge(cells []Cell, done map[string]Result, sinks []Sink) (Results, error) {
	out := make(Results, len(cells))
	var sinkErr error
	for i, c := range cells {
		r, ok := done[c.Key()]
		if !ok || r.Index != c.Index {
			// An index mismatch means the record came from a different matrix
			// that happens to share the key — treat it as missing, like
			// ExecOptions.done does.
			return nil, fmt.Errorf("sweep: merge: no journaled result for cell %s (incomplete sweep; resume the shards)", c.Key())
		}
		r.Cell = c
		out[i] = r
		for _, s := range sinks {
			if err := s.Emit(r); err != nil && sinkErr == nil {
				sinkErr = fmt.Errorf("sweep: sink: %w", err)
			}
		}
	}
	return out, sinkErr
}

// emitter is the emit stage: it reorders completions back into cell-index
// order and forwards the longest completed prefix to the sinks.
type emitter struct {
	mu      sync.Mutex
	results Results
	done    int // results[:done] flushed to sinks
	pending map[int]bool
	sinks   []Sink
	err     error
}

func (em *emitter) put(i int, r Result) {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.results[i] = r
	if em.pending == nil {
		em.pending = make(map[int]bool)
	}
	em.pending[i] = true
	for em.pending[em.done] {
		delete(em.pending, em.done)
		for _, s := range em.sinks {
			if err := s.Emit(em.results[em.done]); err != nil && em.err == nil {
				em.err = fmt.Errorf("sweep: sink: %w", err)
			}
		}
		em.done++
	}
}
