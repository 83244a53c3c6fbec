package obs

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the -cpuprofile / -memprofile flag pair every binary offers,
// so a profile of any run is one flag away instead of a patched build. Both
// files are in runtime/pprof format (read them with `go tool pprof`).
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on fs. Call Start
// after fs.Parse and Stop when the run ends.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof format)")
	fs.StringVar(&p.memPath, "memprofile", "", "write a heap profile to this file when the run ends (runtime/pprof format)")
	return p
}

// Start begins the CPU profile when -cpuprofile is set.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop ends the CPU profile and, when -memprofile is set, writes the heap
// profile as of a fresh garbage collection.
func (p *Profiles) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpu profile: %w", err))
		}
		p.cpu = nil
	}
	if p.memPath != "" {
		runtime.GC()
		f, err := os.Create(p.memPath)
		if err != nil {
			return errors.Join(append(errs, fmt.Errorf("heap profile: %w", err))...)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			errs = append(errs, fmt.Errorf("heap profile: %w", err))
		}
		if err := f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("heap profile: %w", err))
		}
	}
	return errors.Join(errs...)
}
