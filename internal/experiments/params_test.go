package experiments

import (
	"reflect"
	"testing"

	"commtm/internal/sweep"
	"commtm/internal/workloads/apps"
	"commtm/internal/workloads/micro"
)

// TestParamsSplitOnEveryConstructorArgument enforces the params contract
// the sweep engine's result memo keys on: for each of the ten workloads,
// changing any single constructor argument changes Params, so two different
// runs can never share a memo entry.
// Every constructor stores its arguments in exported fields (List's Prime
// is one more exported knob Setup reads), so the test perturbs each
// exported field in turn and a newly added argument is covered unaided.
func TestParamsSplitOnEveryConstructorArgument(t *testing.T) {
	workloads := []sweep.Parameterized{
		micro.NewCounter(100),
		micro.NewRefcount(100, 16),
		micro.NewList(100, 0.5),
		micro.NewOPut(100),
		micro.NewTopK(100, 10),
		apps.NewBoruvka(8, 8, 0.7, 1),
		apps.NewKMeans(64, 4, 3, 2, 1),
		apps.NewSSCA2(6, 100, 1),
		apps.NewGenome(64, 8, 100, 1),
		apps.NewVacation(16, 64, 32, 4, 1),
	}
	for _, w := range workloads {
		v := reflect.ValueOf(w).Elem()
		name := v.Type().Name()
		base, ok := w.Params()
		if !ok {
			t.Errorf("%s: declares no params", name)
			continue
		}
		fields := 0
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			fields++
			clone := reflect.New(v.Type())
			clone.Elem().Set(v)
			switch fv := clone.Elem().Field(i); fv.Kind() {
			case reflect.Int:
				fv.SetInt(fv.Int() + 1)
			case reflect.Uint64:
				fv.SetUint(fv.Uint() + 1)
			case reflect.Float64:
				fv.SetFloat(fv.Float() + 0.125)
			default:
				t.Fatalf("%s.%s: no perturbation for kind %s", name, f.Name, fv.Kind())
			}
			got, _ := clone.Interface().(sweep.Parameterized).Params()
			if got == base {
				t.Errorf("%s: changing %s leaves params %q unchanged", name, f.Name, base)
			}
		}
		if fields == 0 {
			t.Errorf("%s: no exported constructor fields", name)
		}
	}
}
