package main

import (
	"context"
	"fmt"
)

// calibrate runs one workload n times on consecutive seeds, the way
// the benchmark's acceptance check does, and prints each reported
// metric's median, quartiles and relative spread (interquartile
// distance over median) as a Markdown table. It reports whether every
// run was correct.
func calibrate(ctx context.Context, procs *procGroup, cfg config, n int) bool {
	list := endToEnd
	if cfg.traced {
		list = perLayer
	}
	values := make(map[string][]float64)
	ok := true
	for i := 0; i < n && ctx.Err() == nil; i++ {
		run := cfg
		run.seed += int64(i)
		res := runOnce(ctx, procs, run)
		if res == nil {
			ok = false
			continue
		}
		for _, d := range list {
			values[d.name] = append(values[d.name], res.metrics[d.name].value)
		}
	}
	fmt.Printf("\n### %s, %d runs, seeds %d..%d, %g s windows, trace %v\n\n", cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, cfg.traced)
	fmt.Println("| metric | unit | median | q1 | q3 | spread |")
	fmt.Println("|---|---|---:|---:|---:|---:|")
	for _, d := range list {
		sp := spreadOf(values[d.name])
		fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.2f %% |\n", d.name, d.unit, sp.median, sp.q1, sp.q3, 100*sp.rel)
	}
	return ok
}
