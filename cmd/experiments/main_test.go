package main

import (
	"strings"
	"testing"
)

// TestParseArgsRefusesBadArguments: an -only name that is not an
// experiment and a scale that is not positive are refused before any
// data is loaded, the -only refusal listing the valid names.
func TestParseArgsRefusesBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-only", "fig4,fig5", "-scale", "0.05"}, ""},
		{[]string{"-only", " fig5 , intro"}, ""},
		{[]string{"-only", "fig50"}, `unknown experiment "fig50" (valid: table1, intro, fig4, fig5, fig6, fig7, fig8, fig9)`},
		{[]string{"-only", "fig4,"}, `unknown experiment ""`},
		{[]string{"-scale", "-1"}, "-scale -1: the scale must be positive"},
		{[]string{"-scale", "0"}, "-scale 0: the scale must be positive"},
		{[]string{"-scale", "NaN"}, "-scale NaN: the scale must be positive"},
	} {
		c, err := parseArgs(tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if err == nil && len(tc.args) >= 2 && tc.args[0] == "-only" {
			for _, name := range experimentNames {
				if c.sel(name) != strings.Contains(tc.args[1], name) {
					t.Errorf("%q selects %s: %v", tc.args, name, c.sel(name))
				}
			}
		}
	}
}
