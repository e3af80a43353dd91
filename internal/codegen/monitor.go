package codegen

import (
	"fmt"
	"strings"

	"github.com/smartfactory/sysml2conf/internal/core"
)

// MonitorFunction is an aggregation computed by the workcell monitor.
type MonitorFunction string

// Recognized aggregations for workcell-level monitoring attributes.
const (
	// FnSamplesTotal counts every sample seen in the workcell.
	FnSamplesTotal MonitorFunction = "samples_total"
	// FnVariablesLive counts distinct live series in the workcell.
	FnVariablesLive MonitorFunction = "variables_live"
	// FnMean is the running mean of one machine variable.
	FnMean MonitorFunction = "mean"
	// FnMax is the running maximum of one machine variable.
	FnMax MonitorFunction = "max"
)

// MonitorAttr is one workcell monitoring attribute with its derived
// aggregation.
type MonitorAttr struct {
	Name     string          `json:"name"`
	Type     string          `json:"type"`
	Function MonitorFunction `json:"function"`
	// Source is the machine variable name for mean/max aggregations.
	Source string `json:"source,omitempty"`
	Topic  string `json:"topic"`
}

// MonitorConfig configures one workcell monitor component (step-1 output
// for workcells that declare monitoring attributes).
type MonitorConfig struct {
	Name         string        `json:"name"`
	Workcell     string        `json:"workcell"`
	Line         string        `json:"line"`
	SourceFilter string        `json:"sourceFilter"` // broker filter for the workcell's values
	Attributes   []MonitorAttr `json:"attributes"`
	PeriodMs     int           `json:"periodMs"`
	// Shard is the broker shard the monitor connects to (federated plants
	// only): its workcell's owner, or the "_monitor" pseudo-workcell's
	// shard for line-scope monitors.
	Shard int `json:"shard,omitempty"`
}

// classifyMonitor derives the aggregation from the modeled attribute name.
// Unrecognized shapes yield an error so modeling mistakes surface during
// generation rather than silently publishing nothing.
func classifyMonitor(name string) (MonitorFunction, string, error) {
	switch {
	case name == string(FnSamplesTotal):
		return FnSamplesTotal, "", nil
	case name == string(FnVariablesLive):
		return FnVariablesLive, "", nil
	case strings.HasPrefix(name, "mean_"):
		return FnMean, strings.TrimPrefix(name, "mean_"), nil
	case strings.HasPrefix(name, "max_"):
		return FnMax, strings.TrimPrefix(name, "max_"), nil
	}
	return "", "", fmt.Errorf("codegen: workcell monitor attribute %q has no recognized aggregation (samples_total, variables_live, mean_<var>, max_<var>)", name)
}

// buildMonitors derives monitor configs from the production lines and
// workcells that declare monitoring attributes. A line monitor aggregates
// over every machine of the line ("factory/<line>/+/+/values/#"); a
// workcell monitor over its own machines.
func buildMonitors(f *core.Factory, periodMs int) ([]MonitorConfig, error) {
	var out []MonitorConfig
	for _, line := range f.Lines {
		if len(line.Monitors) > 0 {
			mc := MonitorConfig{
				Name:         "monitor-line-" + sanitizeName(line.Name),
				Workcell:     "", // line scope
				Line:         line.Name,
				SourceFilter: fmt.Sprintf("factory/%s/+/+/values/#", line.Name),
				PeriodMs:     periodMs,
			}
			for _, attr := range line.Monitors {
				fn, source, err := classifyMonitor(attr.Name)
				if err != nil {
					return nil, fmt.Errorf("%w (production line %s)", err, line.Name)
				}
				mc.Attributes = append(mc.Attributes, MonitorAttr{
					Name: attr.Name, Type: attr.TypeName, Function: fn, Source: source,
					Topic: fmt.Sprintf("factory/%s/_monitor/%s", line.Name, attr.Name),
				})
			}
			out = append(out, mc)
		}
		for _, wc := range line.Workcells {
			if len(wc.Monitors) == 0 {
				continue
			}
			mc := MonitorConfig{
				Name:         "monitor-" + sanitizeName(wc.Name),
				Workcell:     wc.Name,
				Line:         line.Name,
				SourceFilter: fmt.Sprintf("factory/%s/%s/+/values/#", line.Name, wc.Name),
				PeriodMs:     periodMs,
			}
			for _, attr := range wc.Monitors {
				fn, source, err := classifyMonitor(attr.Name)
				if err != nil {
					return nil, fmt.Errorf("%w (workcell %s)", err, wc.Name)
				}
				mc.Attributes = append(mc.Attributes, MonitorAttr{
					Name:     attr.Name,
					Type:     attr.TypeName,
					Function: fn,
					Source:   source,
					Topic: fmt.Sprintf("factory/%s/%s/_monitor/%s",
						line.Name, wc.Name, attr.Name),
				})
			}
			out = append(out, mc)
		}
	}
	return out, nil
}
