package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestReportJSONFieldList pins the fragment writer's hand-written field
// lists to the json tags of Report and AnalyzedTrace: a field added,
// renamed, reordered or retagged there must be mirrored in the writer,
// or served bytes would silently drop it.
func TestReportJSONFieldList(t *testing.T) {
	for _, tc := range []struct {
		typ       reflect.Type
		keys      []string
		omitempty []string
	}{
		{reflect.TypeOf(Report{}), reportKeys, []string{"skipped"}},
		{reflect.TypeOf(AnalyzedTrace{}), traceKeys, nil},
	} {
		var names, omit []string
		for i := 0; i < tc.typ.NumField(); i++ {
			f := tc.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			if !ok {
				t.Errorf("%s.%s has no json tag; the writer's field list cannot name it", tc.typ.Name(), f.Name)
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "-" {
				continue
			}
			names = append(names, name)
			switch opts {
			case "":
			case "omitempty":
				omit = append(omit, name)
			default:
				t.Errorf("%s.%s: json tag option %q is not handled by the fragment writer", tc.typ.Name(), f.Name, opts)
			}
		}
		if !slices.Equal(names, tc.keys) {
			t.Errorf("%s JSON fields %q, fragment writer writes %q", tc.typ.Name(), names, tc.keys)
		}
		if !slices.Equal(omit, tc.omitempty) {
			t.Errorf("%s omitempty fields %q, fragment writer omits %q", tc.typ.Name(), omit, tc.omitempty)
		}
	}
}
