// Package obstest holds test helpers for packages instrumented with obs
// metrics. Only _test.go files import it.
package obstest

import (
	"reflect"
	"testing"
	"unsafe"

	"bulkpreload/internal/obs"
)

var (
	counterType   = reflect.TypeOf(obs.Counter{})
	histogramType = reflect.TypeOf(obs.Histogram{})
)

// RequireRegistered fails t for every obs.Counter and obs.Histogram
// field of the struct metrics points to (nested struct fields included)
// that reg does not enumerate. Each field is moved in turn — a counter
// by one, a histogram by one observation — and some series of reg's
// snapshot must move with it. A field that
// increments but was never registered would otherwise vanish from
// snapshots, exporters and phase timelines without failing anything.
// The fields are left moved; pass a structure built for the check.
func RequireRegistered(t testing.TB, reg *obs.Registry, metrics any) {
	t.Helper()
	v := reflect.ValueOf(metrics)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		t.Fatalf("RequireRegistered wants a pointer to a struct, got %T", metrics)
	}
	found := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			ptr := unsafe.Pointer(f.UnsafeAddr())
			var move func()
			switch f.Type() {
			case counterType:
				move = func() { (*obs.Counter)(ptr).Inc() }
			case histogramType:
				move = func() { (*obs.Histogram)(ptr).Observe(0) }
			default:
				if f.Kind() == reflect.Struct {
					walk(f, name)
				}
				continue
			}
			found++
			before := reg.Snapshot(0)
			move()
			if after := reg.Snapshot(0); !moved(before, after) {
				t.Errorf("metric field %s is never registered: moving it moved no series of the registry", name)
			}
		}
	}
	walk(v.Elem(), v.Elem().Type().Name())
	if found == 0 {
		t.Fatalf("%T declares no obs metric field", metrics)
	}
}

// moved reports whether any series differs between two snapshots of
// the same registry.
func moved(before, after obs.Snapshot) bool {
	for i, b := range before.Values {
		a := after.Values[i]
		if a.Value != b.Value || a.Count != b.Count {
			return true
		}
	}
	return false
}
