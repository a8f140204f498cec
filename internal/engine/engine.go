// Package engine is the shared command surface of the spreadsheet algebra:
// one session's worth of interaction state — the current sheet, the raw
// table registry, and a (possibly shared) stored-sheet catalog — driven by
// structured operations. Both the textual REPL (internal/repl) and the
// HTTP service (internal/server) execute every command through an Engine,
// so the two front ends cannot drift apart: a REPL line and a JSON op body
// are two spellings of the same engine.Op.
//
// An Engine is NOT safe for concurrent use; callers that share one across
// goroutines (the server's sessions) must serialise access. The Catalog an
// engine uses MAY be shared between engines — core.Catalog is safe for
// concurrent use, which is what lets one session's binary operator consume
// a sheet another session saved.
package engine

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/sqlgen"
)

// Engine is one spreadsheet session's execution state.
type Engine struct {
	catalog *core.Catalog
	tables  *sql.DB
	sheet   *core.Spreadsheet
}

// New creates an engine over the given stored-sheet catalog; pass nil for a
// private catalog. The raw-table registry is always private to the engine.
func New(catalog *core.Catalog) *Engine {
	if catalog == nil {
		catalog = core.NewCatalog()
	}
	return &Engine{catalog: catalog, tables: sql.NewDB()}
}

// setSheet makes sheet the current sheet, closing the one it replaces so
// the dropped sheet's cached artifacts are released.
func (e *Engine) setSheet(sheet *core.Spreadsheet) {
	if e.sheet != nil && e.sheet != sheet {
		e.sheet.Close()
	}
	e.sheet = sheet
}

// Close releases the current sheet's cached artifacts. A session calls it
// when it closes or is evicted; the engine stays usable.
func (e *Engine) Close() {
	if e.sheet != nil {
		e.sheet.Close()
	}
}

// HasSheet reports whether a current sheet exists.
func (e *Engine) HasSheet() bool { return e.sheet != nil }

// Sheet returns the current sheet (nil when none is open).
func (e *Engine) Sheet() *core.Spreadsheet { return e.sheet }

// SheetName returns the current sheet's name, or "".
func (e *Engine) SheetName() string {
	if e.sheet == nil {
		return ""
	}
	return e.sheet.Name()
}

// Version returns the current sheet's operator count, or 0.
func (e *Engine) Version() int {
	if e.sheet == nil {
		return 0
	}
	return e.sheet.Version()
}

// Catalog returns the stored-sheet catalog the engine works against.
func (e *Engine) Catalog() *core.Catalog { return e.catalog }

// DB returns the engine's raw-table registry, e.g. for pre-seeding tables
// before the session starts.
func (e *Engine) DB() *sql.DB { return e.tables }

// TableNames lists the registered raw tables.
func (e *Engine) TableNames() []string { return e.tables.Names() }

// StoredNames lists the catalog's stored sheets.
func (e *Engine) StoredNames() []string { return e.catalog.Names() }

// History returns the current sheet's operation log.
func (e *Engine) History() []string {
	if e.sheet == nil {
		return nil
	}
	return e.sheet.History()
}

// Evaluate returns the current sheet's evaluated result (memoised by core
// until the next operator). Treat the result as read-only.
func (e *Engine) Evaluate() (*core.Result, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	return e.sheet.Evaluate()
}

// RunSQL executes raw SQL against the registered tables.
func (e *Engine) RunSQL(query string) (*relation.Relation, error) {
	if strings.TrimSpace(query) == "" {
		return nil, fmt.Errorf("engine: empty query")
	}
	return e.tables.Query(query)
}

// SQL compiles the current query state to its SQL equivalent.
func (e *Engine) SQL() (string, error) {
	if e.sheet == nil {
		return "", ErrNoSheet
	}
	plan, err := sqlgen.Compile(e.sheet)
	if err != nil {
		return "", err
	}
	return plan.SQL, nil
}

// Stages returns the staged-evaluation explanation of the compiled SQL.
func (e *Engine) Stages() ([]string, error) {
	if e.sheet == nil {
		return nil, ErrNoSheet
	}
	plan, err := sqlgen.Compile(e.sheet)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), plan.Stages...), nil
}

// ErrNoSheet is the shared "operate before loading data" failure. It is
// exported so front ends can map it with errors.Is (the HTTP API turns it
// into 409 Conflict) instead of matching the message text.
var ErrNoSheet = fmt.Errorf("no current sheet; load or demo first")
