package exp

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestRowSchema holds the three spellings of a row's columns together —
// the Row struct, Header and Row.appendCells, plus newRow's NaN
// initialisation — so a column added to one and forgotten in another
// fails here instead of shifting every cell after it.
func TestRowSchema(t *testing.T) {
	header := Header()
	rt := reflect.TypeOf(Row{})
	if rt.NumField() != len(header) {
		t.Fatalf("Row has %d fields, Header %d columns", rt.NumField(), len(header))
	}

	// A row whose every field renders to a cell no other field renders.
	var probe Row
	want := make([]string, rt.NumField())
	pv := reflect.ValueOf(&probe).Elem()
	for i := range want {
		switch f := pv.Field(i); f.Kind() {
		case reflect.String:
			want[i] = "s" + strconv.Itoa(i)
			f.SetString(want[i])
		case reflect.Int:
			want[i] = strconv.Itoa(1000 + i)
			f.SetInt(int64(1000 + i))
		case reflect.Float64:
			want[i] = strconv.Itoa(i) + ".5"
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("Row.%s has kind %s: teach this test (and the encoders) about it", rt.Field(i).Name, f.Kind())
		}
	}
	probe.Kind = "event" // event tallies render on event rows only
	got := strings.Split(string(probe.appendCells(nil)), ",")
	if len(got) != len(header) {
		t.Fatalf("appendCells has %d cells, Header %d columns", len(got), len(header))
	}
	for i, name := range header {
		field := rt.Field(i)
		if field.Name == "Kind" {
			want[i] = "event"
		}
		// Column i is field i: same name up to case and underscores, and
		// the cell carries the field's value.
		if strings.ReplaceAll(name, "_", "") != strings.ToLower(field.Name) {
			t.Errorf("column %d is %q, field %d is Row.%s", i, name, i, field.Name)
		}
		if got[i] != want[i] {
			t.Errorf("appendCells cell %d (%s) = %q, want Row.%s's %q", i, name, got[i], field.Name, want[i])
		}
	}

	// newRow marks every measurement "not measured": all float64 fields
	// but the cell's own q start as NaN.
	fresh := reflect.ValueOf(newRow("p", cell{spec: MustSpec("chord"), bits: 8, q: 0.25}))
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		v := fresh.Field(i).Float()
		if name := rt.Field(i).Name; name == "Q" {
			if v != 0.25 {
				t.Errorf("newRow Q = %v, want the cell's 0.25", v)
			}
		} else if !math.IsNaN(v) {
			t.Errorf("newRow leaves Row.%s = %v, want NaN", name, v)
		}
	}
}
