package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"dirsim/internal/obs"
)

func ticketExp(tenant string) *Experiment {
	return &Experiment{Tenant: tenant}
}

// popAll drains the admission queue through Next, returning tenants in
// service order.
func popAll(t *testing.T, a *Admission) []string {
	t.Helper()
	var order []string
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for a.Depth() > 0 {
		tk, ok := a.Next(ctx)
		if !ok {
			t.Fatal("Next returned early")
		}
		order = append(order, tk.exp.Tenant)
		a.Done(tk.exp.Tenant)
	}
	return order
}

func TestFCFSServesInAdmissionOrder(t *testing.T) {
	d, _ := NewDiscipline("fcfs")
	a := NewAdmission(d, 10, 0, nil)
	// Priorities are ignored: admission order rules.
	for i, pri := range []int{0, 9, 3} {
		if err := a.Submit(ticketExp(string(rune('a'+i))), pri); err != nil {
			t.Fatal(err)
		}
	}
	got := popAll(t, a)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCFS order = %v, want %v", got, want)
		}
	}
}

func TestPriorityServesHighFirstFCFSWithin(t *testing.T) {
	d, _ := NewDiscipline("priority")
	a := NewAdmission(d, 10, 0, nil)
	subs := []struct {
		tenant string
		pri    int
	}{{"low1", 0}, {"hi1", 5}, {"low2", 0}, {"hi2", 5}, {"mid", 3}}
	for _, s := range subs {
		if err := a.Submit(ticketExp(s.tenant), s.pri); err != nil {
			t.Fatal(err)
		}
	}
	got := popAll(t, a)
	want := []string{"hi1", "hi2", "mid", "low1", "low2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

func TestUnknownDisciplineRejected(t *testing.T) {
	if _, err := NewDiscipline("lifo"); err == nil {
		t.Fatal("unknown discipline accepted")
	}
}

func TestAdmissionQuotaAndSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	d, _ := NewDiscipline("fcfs")
	a := NewAdmission(d, 3, 2, reg)

	if err := a.Submit(ticketExp("a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ticketExp("a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ticketExp("a"), 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("third submit err = %v, want ErrQuota", err)
	}
	// Another tenant still fits until the queue bound binds.
	if err := a.Submit(ticketExp("b"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ticketExp("c"), 0); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-capacity submit err = %v, want ErrSaturated", err)
	}
	if v := reg.Counter("service.admission.rejected.quota").Value(); v != 1 {
		t.Errorf("quota rejects = %d, want 1", v)
	}
	if v := reg.Counter("service.tenant.rejects.a").Value(); v != 1 {
		t.Errorf("tenant a rejects = %d, want 1", v)
	}
	if v := reg.Counter("service.admission.rejected.saturated").Value(); v != 1 {
		t.Errorf("saturation rejects = %d, want 1", v)
	}

	// Serving one of tenant a's tickets frees its quota.
	ctx := context.Background()
	tk, _ := a.Next(ctx)
	a.Done(tk.exp.Tenant)
	if err := a.Submit(ticketExp("a"), 0); err != nil {
		t.Fatalf("post-release submit: %v", err)
	}

	a.Close()
	if err := a.Submit(ticketExp("z"), 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close submit err = %v, want ErrDraining", err)
	}
	a.Close() // idempotent
}

func TestNextHonorsContextCancel(t *testing.T) {
	d, _ := NewDiscipline("fcfs")
	a := NewAdmission(d, 1, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := a.Next(ctx)
		done <- ok
	}()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a ticket from an empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not observe context cancellation")
	}
}
