package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/theorem1"
	"sheetmusiq/internal/tpch"
)

// Op is one structured command — a single spreadsheet-algebra step or a
// session-housekeeping action. The JSON form is the wire format of the
// HTTP service; the REPL parses its command lines into the same struct.
// Only the fields an op kind uses need to be set.
type Op struct {
	// Op selects the command; see Apply for the full list.
	Op string `json:"op"`

	Predicate string   `json:"predicate,omitempty"` // select, modify
	Columns   []string `json:"columns,omitempty"`   // group
	Column    string   `json:"column,omitempty"`    // sort, order, agg, hide, unhide, rename (old), dropcol
	Dir       string   `json:"dir,omitempty"`       // group, sort, order: "asc" | "desc"
	Level     int      `json:"level,omitempty"`     // order, agg (1-based)
	Fn        string   `json:"fn,omitempty"`        // agg: avg/sum/min/max/count/countd/stddev
	Name      string   `json:"name,omitempty"`      // agg/formula result column, rename (new), save/open/close/renamesheet (new)
	Formula   string   `json:"formula,omitempty"`   // formula definition
	ID        int      `json:"id,omitempty"`        // modify, dropsel
	Sheet     string   `json:"sheet,omitempty"`     // binary-op operand, renamesheet (old)
	On        string   `json:"on,omitempty"`        // join condition
	Query     string   `json:"query,omitempty"`     // compile
	Table     string   `json:"table,omitempty"`     // use, demo ("cars" | "tpch")
	Path      string   `json:"path,omitempty"`      // load, savestate, loadstate, export
	Scale     float64  `json:"scale,omitempty"`     // demo tpch scale factor
	Window    string   `json:"window,omitempty"`    // window: the OVER expression, e.g. "RANK() OVER (PARTITION BY Model ORDER BY Price)"
}

// Effect reports what an Op did.
type Effect struct {
	Op      string   `json:"op"`
	Entry   string   `json:"entry,omitempty"`  // history entry or action summary
	Sheet   string   `json:"sheet,omitempty"`  // current sheet after the op
	Version int      `json:"version"`          // current sheet version after the op
	ID      int      `json:"id,omitempty"`     // created selection id
	Column  string   `json:"column,omitempty"` // created column name
	Rows    int      `json:"rows,omitempty"`   // rows written by export
	Log     []string `json:"log,omitempty"`    // compile / demo step log
	Mutated bool     `json:"mutated"`          // whether the op changed session state (see Op.Mutates)
}

// Mutates reports whether the op kind changes session state — the current
// sheet, the raw-table registry, or the stored-sheet catalog — as opposed to
// a pure read (explain) or a side-effect-only export of state the session
// already holds (savestate, export write files but leave the session
// untouched). Durability layers log exactly the mutating ops: replaying the
// mutating subsequence through a fresh engine reproduces the session, while
// logging a read would waste WAL space and replaying an export would
// re-write files on recovery. Like dispatch, the match is case-insensitive.
//
// Note the classification is per kind, not per outcome: an op that happens
// to leave the state identical (e.g. hiding an already-hidden column fails,
// sorting by the current key again) still counts as mutating when it
// succeeds, because replaying it is harmless and cheap, whereas missing a
// real mutation would corrupt recovery.
func (o Op) Mutates() bool {
	switch strings.ToLower(o.Op) {
	case "explain", "deps", "impact", "savestate", "export":
		return false
	}
	return true
}

// RegistersTables reports whether the op kind registers raw tables in the
// session's private registry (demo, load). Snapshot checkpoints persist
// these ops alongside the serialized query state: RestoreState needs the
// base relation to exist, and only re-running the registering ops can
// recreate it in a fresh engine.
func (o Op) RegistersTables() bool {
	switch strings.ToLower(o.Op) {
	case "demo", "load":
		return true
	}
	return false
}

// TouchesFilesystem reports whether the op kind reads or writes local files
// — front ends that serve remote callers gate these. The match is
// case-insensitive, like dispatch: "Export" and "export" are the same op,
// so they must hit the same gate.
func (o Op) TouchesFilesystem() bool {
	switch strings.ToLower(o.Op) {
	case "load", "savestate", "loadstate", "export":
		return true
	}
	return false
}

// Apply executes one op against the session. Op kinds, grouped as in the
// paper:
//
//	data:          demo, load, use
//	unary ops:     select, group, ungroup, sort, order, agg, formula,
//	               hide, unhide, distinct, nodistinct, rename
//	binary ops:    join, product, union, minus
//	modification:  modify, dropsel, dropcol, undo, redo
//	housekeeping:  save, open, close, renamesheet
//	persistence:   savestate, loadstate, export
//	compilation:   compile
func (e *Engine) Apply(op Op) (*Effect, error) {
	kind := strings.ToLower(op.Op)
	fn, ok := e.dispatch(kind)
	if !ok {
		opUnknown.Inc()
		return nil, fmt.Errorf("engine: unknown op %q", op.Op)
	}
	start := obs.StartTimer()
	eff, err := fn(op)
	obs.Default.Histogram("engine.op_seconds." + kind).Since(start)
	if err != nil {
		obs.Default.Counter("engine.op_errors." + kind).Inc()
		return nil, err
	}
	obs.Default.Counter("engine.ops." + kind).Inc()
	eff.Op = op.Op
	eff.Mutated = op.Mutates()
	eff.Sheet = e.SheetName()
	eff.Version = e.Version()
	if eff.Entry == "" && e.sheet != nil {
		if hist := e.sheet.History(); len(hist) > 0 {
			eff.Entry = hist[len(hist)-1]
		}
	}
	return eff, nil
}

// opUnknown counts dispatch misses (bad op names from clients).
var opUnknown = obs.Default.Counter("engine.ops.unknown")

// dispatch resolves a lower-cased op kind to its handler.
func (e *Engine) dispatch(kind string) (func(Op) (*Effect, error), bool) {
	switch kind {
	case "demo":
		return e.opDemo, true
	case "load":
		return e.opLoad, true
	case "use":
		return e.opUse, true
	case "select", "filter":
		return e.opSelect, true
	case "group":
		return e.opGroup, true
	case "ungroup":
		return e.sheetOp(func(s *core.Spreadsheet, _ Op) error { return s.Ungroup() }), true
	case "sort":
		return e.opSort, true
	case "order":
		return e.opOrder, true
	case "agg", "aggregate":
		return e.opAgg, true
	case "formula":
		return e.opFormula, true
	case "window":
		return e.opWindow, true
	case "hide":
		return e.sheetOp(func(s *core.Spreadsheet, o Op) error { return s.Hide(o.Column) }), true
	case "unhide", "reinstate":
		return e.sheetOp(func(s *core.Spreadsheet, o Op) error { return s.Reinstate(o.Column) }), true
	case "distinct":
		return e.sheetOp(func(s *core.Spreadsheet, _ Op) error { return s.Distinct() }), true
	case "nodistinct":
		return e.sheetOp(func(s *core.Spreadsheet, _ Op) error { return s.RemoveDistinct() }), true
	case "rename":
		return e.sheetOp(func(s *core.Spreadsheet, o Op) error { return s.Rename(o.Column, o.Name) }), true
	case "modify":
		return e.sheetOp(func(s *core.Spreadsheet, o Op) error { return s.ReplaceSelection(o.ID, o.Predicate) }), true
	case "dropsel":
		return e.sheetOp(func(s *core.Spreadsheet, o Op) error { return s.RemoveSelection(o.ID) }), true
	case "dropcol":
		return e.sheetOp(func(s *core.Spreadsheet, o Op) error { return s.RemoveComputed(o.Column) }), true
	case "undo":
		return e.opUndo, true
	case "redo":
		return e.opRedo, true
	case "save":
		return e.opSave, true
	case "open":
		return e.opOpen, true
	case "close":
		return e.opClose, true
	case "renamesheet":
		return e.opRenameSheet, true
	case "join", "product", "union", "minus":
		return e.opBinary, true
	case "compile":
		return e.opCompile, true
	case "explain":
		return e.opExplain, true
	case "deps", "impact":
		return e.opDeps, true
	case "savestate":
		return e.opSaveState, true
	case "loadstate":
		return e.opLoadState, true
	case "export":
		return e.opExport, true
	}
	return nil, false
}

// sheetOp adapts a mutation that only needs the current sheet.
func (e *Engine) sheetOp(fn func(*core.Spreadsheet, Op) error) func(Op) (*Effect, error) {
	return func(op Op) (*Effect, error) {
		if e.sheet == nil {
			return nil, ErrNoSheet
		}
		if err := fn(e.sheet, op); err != nil {
			return nil, err
		}
		return &Effect{}, nil
	}
}

func (e *Engine) opDemo(op Op) (*Effect, error) {
	switch op.Table {
	case "", "cars":
		cars := dataset.UsedCars()
		e.tables.Register(cars)
		e.sheet = core.New(cars)
		return &Effect{Entry: "opened demo sheet cars"}, nil
	case "tpch":
		sf := op.Scale
		if sf == 0 {
			sf = 0.002
		}
		if sf < 0 {
			return nil, fmt.Errorf("engine: bad tpch scale factor %v", sf)
		}
		tb := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: 1})
		for _, r := range tb.All() {
			e.tables.Register(r)
		}
		if err := tpch.BuildViews(e.tables); err != nil {
			return nil, err
		}
		return &Effect{
			Entry: "generated tpch tables and study views",
			Log:   e.tables.Names(),
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown demo %q (cars, tpch)", op.Table)
}

func (e *Engine) opLoad(op Op) (*Effect, error) {
	if op.Path == "" {
		return nil, fmt.Errorf("engine: load needs a path")
	}
	name := op.Name
	if name == "" {
		name = strings.TrimSuffix(op.Path, ".csv")
		if i := strings.LastIndexAny(name, "/\\"); i >= 0 {
			name = name[i+1:]
		}
	}
	rel, err := relation.LoadCSV(name, op.Path, nil)
	if err != nil {
		return nil, err
	}
	e.tables.Register(rel)
	e.sheet = core.New(rel)
	return &Effect{Entry: fmt.Sprintf("loaded %s as %s", op.Path, name)}, nil
}

func (e *Engine) opUse(op Op) (*Effect, error) {
	rel, ok := e.tables.Table(op.Table)
	if !ok {
		return nil, fmt.Errorf("engine: no table %q (see tables)", op.Table)
	}
	e.sheet = core.New(rel)
	return &Effect{Entry: "opened table " + op.Table}, nil
}

func (e *Engine) opSelect(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	id, err := e.sheet.Select(op.Predicate)
	if err != nil {
		return nil, err
	}
	return &Effect{ID: id}, nil
}

func (e *Engine) opGroup(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	dir, err := core.ParseDir(op.Dir)
	if err != nil {
		return nil, err
	}
	if err := e.sheet.GroupBy(dir, op.Columns...); err != nil {
		return nil, err
	}
	return &Effect{}, nil
}

func (e *Engine) opSort(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	dir, err := core.ParseDir(op.Dir)
	if err != nil {
		return nil, err
	}
	if err := e.sheet.Sort(op.Column, dir); err != nil {
		return nil, err
	}
	return &Effect{}, nil
}

func (e *Engine) opOrder(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	dir, err := core.ParseDir(op.Dir)
	if err != nil {
		return nil, err
	}
	if err := e.sheet.OrderBy(op.Column, dir, op.Level); err != nil {
		return nil, err
	}
	return &Effect{}, nil
}

func (e *Engine) opAgg(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	fn, err := relation.ParseAggFunc(op.Fn)
	if err != nil {
		return nil, err
	}
	got, err := e.sheet.AggregateAs(op.Name, fn, op.Column, op.Level)
	if err != nil {
		return nil, err
	}
	return &Effect{Column: got}, nil
}

func (e *Engine) opFormula(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	got, err := e.sheet.Formula(op.Name, op.Formula)
	if err != nil {
		return nil, err
	}
	return &Effect{Column: got}, nil
}

// opWindow applies ω: the Window field carries the full OVER expression and
// reuses the expression parser, so the wire format is one string — the same
// spelling the SQL layer and persistence use.
func (e *Engine) opWindow(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	if strings.TrimSpace(op.Window) == "" {
		return nil, fmt.Errorf("engine: window needs an OVER expression")
	}
	parsed, err := expr.Parse(op.Window)
	if err != nil {
		return nil, err
	}
	w, ok := parsed.(*expr.WindowCall)
	if !ok {
		return nil, fmt.Errorf("engine: %q is not a window expression (want FN(...) OVER (...))", op.Window)
	}
	got, err := e.sheet.WindowExprAs(op.Name, w)
	if err != nil {
		return nil, err
	}
	return &Effect{Column: got}, nil
}

func (e *Engine) opUndo(Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	entry, err := e.sheet.Undo()
	if err != nil {
		return nil, err
	}
	return &Effect{Entry: entry}, nil
}

func (e *Engine) opRedo(Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	entry, err := e.sheet.Redo()
	if err != nil {
		return nil, err
	}
	return &Effect{Entry: entry}, nil
}

func (e *Engine) opSave(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	if op.Name == "" {
		return nil, fmt.Errorf("engine: save needs a name")
	}
	if err := e.catalog.Save(op.Name, e.sheet); err != nil {
		return nil, err
	}
	return &Effect{Entry: fmt.Sprintf("saved sheet %q", op.Name)}, nil
}

func (e *Engine) opOpen(op Op) (*Effect, error) {
	sheet, err := e.catalog.Open(op.Name)
	if err != nil {
		return nil, err
	}
	e.sheet = sheet
	return &Effect{Entry: fmt.Sprintf("opened stored sheet %q", op.Name)}, nil
}

func (e *Engine) opClose(op Op) (*Effect, error) {
	if err := e.catalog.Close(op.Name); err != nil {
		return nil, err
	}
	return &Effect{Entry: fmt.Sprintf("closed stored sheet %q", op.Name)}, nil
}

func (e *Engine) opRenameSheet(op Op) (*Effect, error) {
	if err := e.catalog.Rename(op.Sheet, op.Name); err != nil {
		return nil, err
	}
	return &Effect{Entry: fmt.Sprintf("renamed stored sheet %q to %q", op.Sheet, op.Name)}, nil
}

// operand resolves a binary operator's second operand: a stored sheet by
// preference, falling back to a raw table opened as a base sheet.
func (e *Engine) operand(name string) (*core.Spreadsheet, error) {
	stored, err := e.catalog.Stored(name)
	if err == nil {
		return stored, nil
	}
	if rel, ok := e.tables.Table(name); ok {
		return core.New(rel), nil
	}
	return nil, err
}

func (e *Engine) opBinary(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	if op.Sheet == "" {
		return nil, fmt.Errorf("engine: %s needs a stored-sheet operand", op.Op)
	}
	stored, err := e.operand(op.Sheet)
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(op.Op) {
	case "join":
		if strings.TrimSpace(op.On) == "" {
			return nil, fmt.Errorf("engine: join needs an ON condition")
		}
		err = e.sheet.Join(stored, op.On)
	case "product":
		err = e.sheet.Product(stored)
	case "union":
		err = e.sheet.Union(stored)
	case "minus":
		err = e.sheet.Difference(stored)
	}
	if err != nil {
		return nil, err
	}
	return &Effect{}, nil
}

// opExplain reports the evaluation stage plan of the current sheet as log
// lines (the REPL prints them verbatim); the structured form is served by
// GET /v1/sessions/{id}/plan. It evaluates (memoised) but mutates nothing.
func (e *Engine) opExplain(Op) (*Effect, error) {
	info, err := e.Plan()
	if err != nil {
		return nil, err
	}
	return &Effect{Entry: "explain", Log: info.Lines()}, nil
}

// opCompile turns a single-block SQL query into a live spreadsheet via the
// Theorem 1 construction: type SQL once, then manipulate the result
// directly.
func (e *Engine) opCompile(op Op) (*Effect, error) {
	if strings.TrimSpace(op.Query) == "" {
		return nil, fmt.Errorf("engine: compile needs a query")
	}
	stmt, err := sql.Parse(op.Query)
	if err != nil {
		return nil, err
	}
	table, ok := stmt.From.(*sql.TableRef)
	if !ok {
		return nil, fmt.Errorf("engine: compile needs a single FROM table (views handle joins)")
	}
	base, ok := e.tables.Table(table.Name)
	if !ok {
		return nil, fmt.Errorf("engine: no table %q (see tables)", table.Name)
	}
	prog, err := theorem1.Compile(base, stmt)
	if err != nil {
		return nil, err
	}
	e.sheet = prog.Sheet
	return &Effect{
		Entry: "compiled via the Theorem 1 construction",
		Log:   append([]string(nil), prog.Log...),
	}, nil
}

func (e *Engine) opSaveState(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	if op.Path == "" {
		return nil, fmt.Errorf("engine: savestate needs a path")
	}
	data, err := e.sheet.MarshalState()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(op.Path, data, 0o644); err != nil {
		return nil, err
	}
	return &Effect{Entry: "saved query state to " + op.Path}, nil
}

func (e *Engine) opLoadState(op Op) (*Effect, error) {
	if op.Path == "" {
		return nil, fmt.Errorf("engine: loadstate needs a path")
	}
	data, err := os.ReadFile(op.Path)
	if err != nil {
		return nil, err
	}
	if err := e.RestoreSheet(data); err != nil {
		return nil, err
	}
	return &Effect{Entry: "restored query state from " + op.Path}, nil
}

// RestoreSheet rebuilds the current sheet from serialized query state (the
// savestate/core persist format), resolving the base relation from the
// session's raw-table registry. Shared by the loadstate op and by WAL
// snapshot recovery.
func (e *Engine) RestoreSheet(data []byte) error {
	// Peek at the base name to find the backing table.
	var head struct {
		BaseName string `json:"base_name"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("engine: bad state file: %w", err)
	}
	base, ok := e.tables.Table(head.BaseName)
	if !ok {
		return fmt.Errorf("engine: state needs table %q; load it first", head.BaseName)
	}
	sheet, err := core.RestoreState(base, data)
	if err != nil {
		return err
	}
	e.sheet = sheet
	return nil
}

// MarshalSheetFull serialises the active sheet's complete interaction state
// (query state plus undo/redo stacks) via core.MarshalFull. WAL snapshot
// checkpoints use it so recovery preserves undo history; it fails with
// core.ErrHistoryNotPortable when the history crosses a binary operator.
func (e *Engine) MarshalSheetFull() ([]byte, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	return e.sheet.MarshalFull()
}

// RestoreSheetFull is RestoreSheet's counterpart for the MarshalSheetFull
// document: it rebuilds the sheet with its undo/redo stacks and operator
// counter intact.
func (e *Engine) RestoreSheetFull(data []byte) error {
	var head struct {
		State struct {
			BaseName string `json:"base_name"`
		} `json:"state"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("engine: bad state file: %w", err)
	}
	base, ok := e.tables.Table(head.State.BaseName)
	if !ok {
		return fmt.Errorf("engine: state needs table %q; load it first", head.State.BaseName)
	}
	sheet, err := core.RestoreFull(base, data)
	if err != nil {
		return err
	}
	e.sheet = sheet
	return nil
}

func (e *Engine) opExport(op Op) (*Effect, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	if op.Path == "" {
		return nil, fmt.Errorf("engine: export needs a path")
	}
	res, err := e.sheet.Evaluate()
	if err != nil {
		return nil, err
	}
	if err := res.Table.SaveCSV(op.Path); err != nil {
		return nil, err
	}
	return &Effect{
		Entry: fmt.Sprintf("exported %d rows to %s", res.Table.Len(), op.Path),
		Rows:  res.Table.Len(),
	}, nil
}
