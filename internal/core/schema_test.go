package core

import (
	"reflect"
	"testing"

	"dope/internal/monitor"
)

// TestMonitorHopCarriesEveryField guards the one hand-written hop of the
// observation schema, monitor.StageSnapshot -> StageReport: every snapshot
// field must arrive in the report under the same name, and no report field
// may be left unpopulated — so a counter added to either struct and forgotten
// in newStageReport fails here instead of reading as zero downstream.
func TestMonitorHopCarriesEveryField(t *testing.T) {
	var snap monitor.StageSnapshot
	sv := reflect.ValueOf(&snap).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("StageSnapshot.%s: kind %v not handled by this test", sv.Type().Field(i).Name, f.Kind())
		}
	}
	st := &StageSpec{Name: "work", Type: PAR, MinDoP: 2, MaxDoP: 9, Nest: &NestSpec{Name: "inner"}}
	rv := reflect.ValueOf(newStageReport(st, 5, snap))

	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		got := rv.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("StageSnapshot.%s has no StageReport field of the same name", name)
			continue
		}
		if !reflect.DeepEqual(got.Interface(), sv.Field(i).Interface()) {
			t.Errorf("StageReport.%s = %v, snapshot had %v", name, got.Interface(), sv.Field(i).Interface())
		}
	}
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Errorf("StageReport.%s is not populated by newStageReport", rv.Type().Field(i).Name)
		}
	}
}
