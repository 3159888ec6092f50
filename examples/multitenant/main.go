// Multitenant: three services on one machine under the tenancy arbiter —
// and two of them are misbehaving.
//
// A shared 4-context pool serves three tenants:
//
//   - "alpha" takes a 1% injected panic rate (a crashing request handler);
//   - "bravo" takes a 1% injected stall rate (requests wedging on dead I/O,
//     unwedged by the per-stage deadline watchdog);
//   - "clean" is well-behaved and must not notice either neighbor.
//
// The arbiter grants each tenant a context quota by weighted fair share,
// reclaims idle quota for whoever demands it, and contains each tenant's
// failures to its own slice of the machine: a panic or stall burns only the
// failing tenant's budget and tokens, never a neighbor's Begin fast path.
// The exit status asserts the isolation counters, which makes this example
// double as the chaos smoke test in CI.
//
// Run with:
//
//	go run ./examples/multitenant
package main

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dope/internal/core"
	"dope/internal/faults"
	"dope/internal/platform"
	"dope/internal/queue"
	"dope/internal/tenancy"
)

const (
	contexts  = 4
	perTenant = 300
	faultRate = 0.01
)

// tenantWorkload is one tenant's service: a PAR stage draining a request
// queue, resilient to injected faults via fail-restart and a deadline.
type tenantWorkload struct {
	name   string
	work   *queue.Queue[int]
	served atomic.Int64
	spec   *core.NestSpec
}

func newWorkload(name string) *tenantWorkload {
	t := &tenantWorkload{name: name, work: queue.New[int](0)}
	t.spec = &core.NestSpec{Name: name, Alts: []*core.AltSpec{{
		Name: "doall",
		Stages: []core.StageSpec{{
			Name:      "worker",
			Type:      core.PAR,
			OnFailure: core.FailRestart,
			// Generous budget: the injected faults are the norm here, not
			// a stage gone rogue.
			FailureBudget: 1 << 16,
			FailureWindow: time.Minute,
			// The stall watchdog's bound: a wedged request is abandoned
			// within this deadline and its context token reclaimed.
			Deadline: 25 * time.Millisecond,
		}},
		Make: func(item any) (*core.AltInstance, error) {
			return &core.AltInstance{Stages: []core.StageFns{{
				Fn: func(w *core.Worker) core.Status {
					if w.Suspending() {
						return core.Suspended
					}
					_, ok, err := t.work.DequeueUntil(w.Done())
					if errors.Is(err, queue.ErrClosed) {
						return core.Finished
					}
					if !ok {
						return core.Suspended
					}
					w.Begin()                          //dopevet:ignore suspendcheck suspension is observed via DequeueUntil(w.Done())
					time.Sleep(200 * time.Microsecond) //dopevet:ignore tokenhold sleep simulates request work in the example
					t.served.Add(1)
					w.End()
					return core.Executing
				},
				Load: func() float64 { return float64(t.work.Len()) },
			}}}, nil
		},
	}}}
	return t
}

func main() {
	pool := platform.NewContexts(contexts)
	arb := tenancy.New(pool,
		tenancy.WithTickInterval(2*time.Millisecond),
		tenancy.WithDrainTimeout(100*time.Millisecond))
	defer arb.Close()

	alpha := newWorkload("alpha")
	bravo := newWorkload("bravo")
	clean := newWorkload("clean")

	// Chaos: 1% of alpha's requests panic, 1% of bravo's wedge forever
	// inside their CPU section until the deadline watchdog abandons them.
	faults.New(faultRate, 1, faults.WithKind(faults.Panic)).WrapNest(alpha.spec, "worker")
	faults.New(faultRate, 2, faults.WithKind(faults.Stall)).WrapNest(bravo.spec, "worker")

	tenants := make(map[string]*tenancy.Tenant, 3)
	for _, wl := range []*tenantWorkload{alpha, bravo, clean} {
		tn, err := arb.Register(tenancy.TenantSpec{
			Name:        wl.name,
			Root:        wl.spec,
			Weight:      1,
			MinContexts: 1,
			MaxContexts: contexts,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "register %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		tenants[wl.name] = tn
	}

	// Ctrl-C stops every tenant's executive through the drain protocol so
	// the Wait loop below returns and the isolation report still prints.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		signal.Stop(sig)
		for _, tn := range tenants {
			tn.Exec().Stop()
		}
	}()

	for _, wl := range []*tenantWorkload{alpha, bravo, clean} {
		for i := 1; i <= perTenant; i++ {
			wl.work.Enqueue(i)
		}
		wl.work.Close()
	}

	ok := true
	for _, wl := range []*tenantWorkload{alpha, bravo, clean} {
		tn := tenants[wl.name]
		if err := tn.Exec().Wait(); err != nil {
			fmt.Printf("tenant %s died: %v\n", wl.name, err)
			ok = false
			continue
		}
		// The arbiter's watcher observes the finish asynchronously; give
		// the state a beat to settle before reporting it.
		for end := time.Now().Add(time.Second); tn.State() == tenancy.Running && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("tenant %-5s served %d/%d  panics=%d stalls=%d  state=%v\n",
			wl.name, wl.served.Load(), perTenant,
			tn.Exec().TaskFailures(), tn.Exec().TaskStalls(), tn.State())
	}

	// Isolation counters: the chaos stayed inside alpha and bravo, the
	// clean tenant served everything, and every context token came home.
	if clean.served.Load() != perTenant {
		fmt.Printf("isolation VIOLATED: clean tenant served %d/%d\n", clean.served.Load(), perTenant)
		ok = false
	}
	if tenants["clean"].Exec().TaskFailures() != 0 || tenants["clean"].Exec().TaskStalls() != 0 {
		fmt.Println("isolation VIOLATED: chaos leaked into the clean tenant")
		ok = false
	}
	if tenants["alpha"].Exec().TaskFailures() == 0 {
		fmt.Println("chaos MISSING: no panics landed in alpha")
		ok = false
	}
	if tenants["bravo"].Exec().TaskStalls() == 0 {
		fmt.Println("chaos MISSING: no stalls landed in bravo")
		ok = false
	}
	if busy := pool.Busy(); busy != 0 {
		fmt.Printf("isolation VIOLATED: %d context tokens still out after all tenants finished\n", busy)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Printf("isolation ok: %d faults contained per misbehaving tenant's own quota, 0 leaked, pool drained\n",
		tenants["alpha"].Exec().TaskFailures()+tenants["bravo"].Exec().TaskStalls())
}
