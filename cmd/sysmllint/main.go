// Command sysmllint checks SysML v2 factory models against the modeling
// methodology: syntax, name resolution, specialization and redefinition
// consistency, abstract-instantiation rules, and ISA-95 hierarchy
// compliance (every workcell has machines, machines reference drivers, ...).
//
// Exit status is 0 for a clean model (warnings allowed), 1 when a model has
// errors, and 2 for bad usage or an unreadable file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/smartfactory/sysml2conf"
	"github.com/smartfactory/sysml2conf/internal/icelab"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the models named by args, writes findings to stdout and
// usage or I/O problems to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sysmllint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	useICELab := fs.Bool("icelab", false, "lint the built-in ICE Laboratory model")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	type unit struct{ name, src string }
	var units []unit
	if *useICELab {
		units = append(units, unit{"icelab.sysml", icelab.GenerateModelText(icelab.ICELab())})
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "sysmllint:", err)
			return 2
		}
		units = append(units, unit{path, string(data)})
	}
	if len(units) == 0 {
		fmt.Fprintln(stderr, "sysmllint: no input (pass files or -icelab)")
		return 2
	}

	exit := 0
	for _, u := range units {
		findings, err := sysml2conf.Lint(u.name, u.src)
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if err != nil {
			exit = 1
		}
		if len(findings) == 0 {
			fmt.Fprintf(stdout, "%s: clean\n", u.name)
		}
	}
	return exit
}
