// Command wspsolve solves one winner selection problem instance from an
// instance file (or generates one), comparing mechanisms side by side:
// SSAM's greedy selection and payments, the offline optimum, and any
// registered mechanism named by a -mechanism spec. It is the workbench
// for inspecting a single round.
//
// Usage:
//
//	wspsolve -in instance.json
//	wspsolve -gen -bidders 25 -seed 7 -out instance.json   # generate
//	wspsolve -gen -mechanism budgeted-ssam:budget=500 -mechanism vcg
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/optimal"
	"edgeauction/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wspsolve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wspsolve", flag.ContinueOnError)
	in := fs.String("in", "", "instance file to solve (as written by -out)")
	out := fs.String("out", "", "write the (possibly generated) instance here")
	gen := fs.Bool("gen", false, "generate an instance instead of reading one")
	bidders := fs.Int("bidders", 25, "bidders when generating")
	seed := fs.Int64("seed", 1, "generator seed")
	optTime := fs.Duration("opt-time", 10*time.Second, "time budget for the OPT line's exact solve (a vcg spec runs at the solver's node budget instead: mechanisms must be deterministic)")
	var specs core.MechanismSpecList
	fs.Var(&specs, "mechanism", "also clear the instance with this mechanism spec, e.g. 'fixed-price:unit=12.5' or 'vcg' (repeatable; see internal/core.ParseMechanismSpec)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ins *core.Instance
	switch {
	case *gen:
		ins = workload.Instance(workload.NewRand(*seed), workload.InstanceConfig{Bidders: *bidders})
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open %s: %w", *in, err)
		}
		defer func() { _ = f.Close() }()
		ins, err = workload.ReadInstance(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -in FILE or -gen is required")
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		defer func() { _ = f.Close() }()
		if err := workload.WriteInstance(f, ins); err != nil {
			return err
		}
		fmt.Printf("instance written to %s\n", *out)
	}

	fmt.Printf("instance: %d needy (total demand %d), %d bids\n\n",
		ins.NumNeedy(), ins.TotalDemand(), len(ins.Bids))

	ssam, err := core.SSAM(ins, core.Options{})
	if err != nil {
		return fmt.Errorf("SSAM: %w", err)
	}
	fmt.Printf("SSAM:    cost %10.2f  payment %10.2f  winners %3d  certified ratio %.3f\n",
		ssam.SocialCost, ssam.TotalPayment(), len(ssam.Winners), ssam.Dual.Ratio())

	res, err := optimal.Solve(ins, optimal.Options{TimeLimit: *optTime})
	if err != nil {
		return fmt.Errorf("offline optimum: %w", err)
	}
	tag := "exact"
	if !res.Exact {
		tag = fmt.Sprintf("bound [%.2f, %.2f]", res.LowerBound, res.Cost)
	}
	fmt.Printf("OPT:     cost %10.2f  (%s, %d nodes)  SSAM/OPT = %.4f\n",
		res.Cost, tag, res.Nodes, ssam.SocialCost/res.Cost)

	for _, spec := range specs {
		out, err := core.RunMechanism(spec, ins, core.Options{})
		infeasible := errors.Is(err, core.ErrInfeasible)
		if err != nil && !infeasible {
			return fmt.Errorf("%s: %w", spec, err)
		}
		if out == nil {
			fmt.Printf("%s: infeasible\n", spec)
			continue
		}
		note := ""
		if infeasible {
			note = "  (infeasible)"
		}
		fmt.Printf("%s: cost %10.2f  payment %10.2f  winners %3d  coverage %5.1f%%%s\n",
			spec, out.SocialCost, out.TotalPayment(), len(out.Winners), 100*out.CoverageFraction(ins), note)
	}

	fmt.Printf("\n%-8s %-6s %10s %10s\n", "winner", "bid", "price", "payment")
	for _, w := range ssam.Winners {
		b := ins.Bids[w]
		fmt.Printf("ms-%-5d alt-%-2d %10.2f %10.2f\n", b.Bidder, b.Alt, b.Price, ssam.Payments[w])
	}
	return nil
}
