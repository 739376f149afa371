package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Renderer is any experiment result that can print itself.
type Renderer interface {
	Render() string
}

// Runner executes one named experiment.
type Runner func(quick bool) (Renderer, error)

// Registry maps experiment ids (as used by `pimdl-experiments -exp`) to runners.
var Registry = map[string]Runner{
	"fig3": func(bool) (Renderer, error) { return Fig3(), nil },
	"fig4": func(bool) (Renderer, error) { return Fig4(), nil },
	"table4": func(quick bool) (Renderer, error) {
		return Table4(accCfg(quick))
	},
	"table5": func(quick bool) (Renderer, error) {
		return Table5(accCfg(quick))
	},
	"fig10":    func(bool) (Renderer, error) { return Fig10() },
	"fig11":    func(bool) (Renderer, error) { return Fig11() },
	"fig12":    func(bool) (Renderer, error) { return Fig12() },
	"fig13":    func(bool) (Renderer, error) { return Fig13() },
	"fig14":    func(bool) (Renderer, error) { return Fig1415() },
	"fig15":    func(bool) (Renderer, error) { return Fig1415() },
	"ablation": func(quick bool) (Renderer, error) { return Ablation(quick) },
}

func accCfg(quick bool) AccuracyConfig {
	if quick {
		return QuickAccuracy
	}
	return FullAccuracy
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	var ns []string
	for n := range Registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Run executes the named experiment and writes its rendering to w.
func Run(name string, w io.Writer, quick bool) error {
	r, ok := Registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	res, err := r(quick)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, res.Render())
	return err
}
