package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/sqlgen"
	"sheetmusiq/internal/tpch"
)

// twinTask is one task state of the SQL twin with its algebra answer:
// the sheet after the first step actions of task id.
type twinTask struct {
	id, step int
	final    bool // the task's last action
	sheet    *core.Spreadsheet
	want     string
}

// twinTasks runs every task's algebra program and keeps each state it
// passes through, with its result. A twin step refreshes one state, as the
// study refreshes the sheet after every action. With only the ten final
// states, half the steps cost at most 13 ms and half at least 20 ms, so
// the median step fell in that gap and spread by 28% (IQR over median)
// between five seeds. The 57 states spread their costs evenly.
func twinTasks(db *sql.DB) ([]twinTask, error) {
	var out []twinTask
	for _, task := range tpch.Tasks() {
		for k := 1; k <= len(task.Steps); k++ {
			s, err := task.Sheet(db)
			if err != nil {
				return nil, err
			}
			for _, st := range task.Steps[:k] {
				if err := st.Apply(s); err != nil {
					return nil, fmt.Errorf("task %d step %d: %w", task.ID, k, err)
				}
			}
			res, err := s.Evaluate()
			if err != nil {
				return nil, fmt.Errorf("task %d step %d: %w", task.ID, k, err)
			}
			out = append(out, twinTask{
				id: task.ID, step: k, final: k == len(task.Steps),
				sheet: s, want: res.Table.String(),
			})
		}
	}
	return out, nil
}

// roundTrip compiles a task state to SQL and runs it, as one step: the
// step is a root span, generation and query its children.
func roundTrip(db *sql.DB, tk twinTask, root, in spanFunc) error {
	return root("step", func() error {
		var text string
		err := in("sqlgen.generate", func() error {
			var err error
			text, err = sqlgen.Generate(tk.sheet)
			return err
		})
		if err != nil {
			return err
		}
		return in(fmt.Sprintf("sql.query.task%d", tk.id), func() error {
			rel, err := db.Query(text)
			if err == nil && rel.String() != tk.want {
				err = fmt.Errorf("task %d step %d: generated SQL disagrees with the algebra", tk.id, tk.step)
			}
			return err
		})
	})
}

// suitePass runs the SQL-only queries in order, each as a root span, and
// returns their results.
func suitePass(db *sql.DB, order []int, root, in spanFunc) ([]string, time.Duration, error) {
	qs := tpch.ExcludedQueries()
	out := make([]string, len(qs))
	start := time.Now()
	for _, i := range order {
		err := root("suite", func() error {
			return in("sql.query."+qs[i].TpchQuery, func() error {
				rel, err := db.Query(qs[i].SQL)
				if err == nil {
					out[i] = rel.String()
				}
				return err
			})
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", qs[i].TpchQuery, err)
		}
	}
	return out, time.Since(start), nil
}

func runSQLTwin(cfg *config, t *tally) (*report, error) { return sqlTwin(cfg, t, nil) }

func traceSQLTwin(cfg *config, t *tally) (*report, error) {
	return sqlTwin(cfg, t, newTracedRun(cfg))
}

// sqlTwin measures the prototype's path: each step compiles one task
// state to SQL and runs it in-process, and sql_roundtrip_s times the ten
// final states of a pass over all states; two passes over the SQL-only
// queries bracket the steps. Untraced (r nil) it sets up setUps times and
// reports the end-to-end metrics. Traced it sets up once, runs every call
// inside r's spans and reports the per-layer metrics. Both run the same
// steps and checks.
func sqlTwin(cfg *config, t *tally, r *tracedRun) (*report, error) {
	var setups []float64
	var db *sql.DB
	for i := 0; i < r.setUps(); i++ {
		start := time.Now()
		var err error
		// The SQL-only query constants were tuned for the default scale.
		if db, err = r.openDB(tpch.DefaultConfig(), nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	tasks, err := twinTasks(db)
	if err != nil {
		return nil, err
	}
	rng := seedRNG(cfg.seed)
	root, in := r.spans()
	order := rng.Perm(len(tpch.ExcludedQueries()))
	suite := func() (out []string, d time.Duration, err error) {
		r.window("suite", func() { out, d, err = suitePass(db, order, root, in) })
		return out, d, err
	}
	first, d1, err := suite()
	if err != nil {
		return nil, err
	}

	var lat, passes []float64
	var elapsed time.Duration
	runtime.GC()
	r.window("loop", func() {
		start := time.Now()
		for time.Since(start) < cfg.seconds {
			var pass float64
			for _, i := range rng.Perm(len(tasks)) {
				t0 := time.Now()
				err := roundTrip(db, tasks[i], root, in)
				d := ms(time.Since(t0))
				if !t.check(err) {
					continue
				}
				lat = append(lat, d)
				if tasks[i].final {
					pass += d
				}
			}
			passes = append(passes, pass/1e3)
		}
		elapsed = time.Since(start)
	})
	rss, err := vmHWM(fmt.Sprint(os.Getpid()))
	if err != nil {
		return nil, err
	}

	second, d2, err := suite()
	if err != nil {
		return nil, err
	}
	for i, q := range tpch.ExcludedQueries() {
		var err error
		if second[i] != first[i] {
			err = fmt.Errorf("%s: result changed between passes", q.TpchQuery)
		}
		t.check(err)
	}
	rep := newReport()
	if r != nil {
		rep = r.report(t)
	} else {
		stepMetrics(rep, lat, elapsed)
		rep.metrics["setup_s"] = metric{median(setups), "s"}
		rep.metrics["rss_peak_mb"] = metric{rss, "MB"}
	}
	rep.info["sql_roundtrip_s"] = metric{median(passes), "s"}
	rep.info["sql_suite_s"] = metric{median([]float64{d1.Seconds(), d2.Seconds()}), "s"}
	rep.provenance["tpch_scale"] = fmt.Sprint(tpch.DefaultConfig().ScaleFactor)
	rep.provenance["durability"] = "none (in-process)"
	return rep, nil
}
