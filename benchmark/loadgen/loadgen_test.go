package loadgen

import (
	"reflect"
	"testing"
	"time"
)

var threeSources = []Source{
	{Rate: 600},
	{Rate: 600},
	{Rate: 5000, OnS: 2, PeriodS: 5, PhaseS: 1},
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := Schedule(7, 10*time.Second, threeSources)
	b := Schedule(7, 10*time.Second, threeSources)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different merged schedules")
	}
	c := Schedule(8, 10*time.Second, threeSources)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != len(c) {
		t.Fatalf("the offered load depends on the seed: %d and %d arrivals", len(a), len(c))
	}
}

func TestScheduleCountsOrderAndBursts(t *testing.T) {
	sched := Schedule(1, 10*time.Second, threeSources)
	counts := make([]int, len(threeSources))
	for i, a := range sched {
		counts[a.Src]++
		if i > 0 && a.At < sched[i-1].At {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a.At < 0 || a.At >= 10*time.Second {
			t.Fatalf("arrival %d due at %v, outside the schedule", i, a.At)
		}
		if a.Src == 2 {
			// Active during [1, 3) of every 5 s.
			if in := a.At % (5 * time.Second); in < time.Second || in >= 3*time.Second {
				t.Fatalf("bursty arrival at %v falls outside its burst", a.At)
			}
		}
	}
	if want := []int{6000, 6000, 20000}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("arrivals per source = %v, want %v", counts, want)
	}
}

func TestPlaySendsEverythingAndReportsLateness(t *testing.T) {
	sched := []Arrival{{At: 0}, {At: time.Millisecond}, {At: time.Millisecond}, {At: 3 * time.Millisecond}}
	start := time.Now()
	var got []int
	late := Play(start, sched, func(i int, a Arrival, due time.Time) {
		got = append(got, i)
		if !due.Equal(start.Add(a.At)) {
			t.Errorf("arrival %d due %v, want %v", i, due, start.Add(a.At))
		}
		if time.Now().Before(due) {
			t.Errorf("arrival %d sent before it was due", i)
		}
	})
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("sent %v", got)
	}
	for i, d := range late {
		if d < 0 {
			t.Errorf("arrival %d has negative lateness %v", i, d)
		}
	}
}
