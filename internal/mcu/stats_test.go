package mcu

import (
	"reflect"
	"testing"

	"agilefpga/internal/sim"
)

// TestStatsAddCoversEveryField gives every counter of Stats a distinct
// value, adds it twice to a zero Stats and expects every field doubled:
// a field added to Stats but not to Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	breakdown := reflect.TypeOf(sim.Breakdown{})
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case f.Type() == breakdown:
			for p := 0; p < sim.NumPhases; p++ {
				one.Phases.Add(sim.Phase(p), sim.Time(100+p))
			}
		default:
			t.Fatalf("Stats.%s is a %s: teach Add and this test to sum it", name, f.Type())
		}
	}
	var sum Stats
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if f := got.Field(i); f.Kind() == reflect.Uint64 {
			if want := 2 * uint64(i+1); f.Uint() != want {
				t.Errorf("Stats.%s = %d after two Adds, want %d", name, f.Uint(), want)
			}
		}
	}
	for p := 0; p < sim.NumPhases; p++ {
		if got, want := sum.Phases.Get(sim.Phase(p)), sim.Time(2*(100+p)); got != want {
			t.Errorf("Stats.Phases[%s] = %d after two Adds, want %d", sim.Phase(p), got, want)
		}
	}
}

func TestStatsHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Errorf("hit rate with no requests = %v, want 0", hr)
	}
	if hr := (Stats{Requests: 4, Hits: 3}).HitRate(); hr != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", hr)
	}
}
