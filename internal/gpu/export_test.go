package gpu

import (
	"reflect"
	"testing"
)

// SetPerCycle turns off sim's quiescence caches, so every SM runs its full
// tick every cycle: the reference the cache is checked against.
func SetPerCycle(sim *Simulator) { sim.perCycle = true }

// CompressionDisabledSMs counts the SMs whose adaptive disable has turned
// store-side compression off.
func CompressionDisabledSMs(sim *Simulator) int {
	n := 0
	for _, sm := range sim.sms {
		if sm.compDisabled {
			n++
		}
	}
	return n
}

// Perturb sets v to a value other than its current one: numbers grow by
// one, booleans flip, strings gain a suffix, and a struct perturbs its
// first field. Tests that walk config.Config change one field with it.
func Perturb(t testing.TB, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		Perturb(t, v.Field(0))
	default:
		t.Fatalf("cannot perturb a %s", v.Type())
	}
}
