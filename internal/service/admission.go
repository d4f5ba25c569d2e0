package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"dirsim/internal/obs"
)

// Admission errors. The HTTP layer maps them to status codes: quota and
// saturation are retryable (429/503 with Retry-After), draining is
// terminal for this server instance.
var (
	// ErrQuota means the tenant already has its full quota of
	// experiments queued or running.
	ErrQuota = errors.New("service: tenant quota exceeded")
	// ErrSaturated means the admission queue is full across all tenants.
	ErrSaturated = errors.New("service: admission queue full")
	// ErrDraining means the server is shutting down and refuses new work.
	ErrDraining = errors.New("service: draining, not accepting work")
)

// Ticket is one admitted experiment waiting for (or holding) an
// execution slot.
type Ticket struct {
	exp *Experiment
	pri int    // larger runs sooner under the priority discipline
	seq uint64 // admission order; ties and FCFS run in this order
}

// Discipline is a queueing policy for admitted tickets. Implementations
// are not safe for concurrent use; Admission serializes access. The two
// provided policies — FCFS and priority — make the service's scheduling
// explicit and comparable, in the spirit of queueing-discipline studies:
// FCFS bounds waiting time variance, priority bounds important work's
// waiting time at the expense of the rest.
type Discipline interface {
	Name() string
	Push(*Ticket)
	Pop() *Ticket // nil when empty
	Len() int
}

// NewDiscipline resolves a policy by name ("fcfs" or "priority").
func NewDiscipline(name string) (Discipline, error) {
	switch name {
	case "", "fcfs":
		return &fcfs{}, nil
	case "priority":
		return &priorityQueue{}, nil
	}
	return nil, fmt.Errorf("service: unknown discipline %q (try fcfs or priority)", name)
}

// fcfs serves tickets strictly in admission order.
type fcfs struct{ q []*Ticket }

func (f *fcfs) Name() string   { return "fcfs" }
func (f *fcfs) Push(t *Ticket) { f.q = append(f.q, t) }
func (f *fcfs) Len() int       { return len(f.q) }
func (f *fcfs) Pop() *Ticket {
	if len(f.q) == 0 {
		return nil
	}
	t := f.q[0]
	f.q[0] = nil
	f.q = f.q[1:]
	return t
}

// priorityQueue serves the highest-priority ticket first, FCFS within a
// priority level (heap ordered by pri desc, then seq asc).
type priorityQueue struct{ q ticketHeap }

func (p *priorityQueue) Name() string   { return "priority" }
func (p *priorityQueue) Push(t *Ticket) { heap.Push(&p.q, t) }
func (p *priorityQueue) Len() int       { return p.q.Len() }
func (p *priorityQueue) Pop() *Ticket {
	if p.q.Len() == 0 {
		return nil
	}
	return heap.Pop(&p.q).(*Ticket)
}

type ticketHeap []*Ticket

func (h ticketHeap) Len() int { return len(h) }
func (h ticketHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h ticketHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ticketHeap) Push(x any)   { *h = append(*h, x.(*Ticket)) }
func (h *ticketHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Admission is the service's bounded front door: a queue with a pluggable
// discipline, a per-tenant quota on work in the system (queued plus
// running), and rate accounting on the shared registry.
type Admission struct {
	mu       sync.Mutex
	d        Discipline
	maxQueue int
	quota    int // per-tenant queued+running; 0 means unlimited
	inUse    map[string]int
	seq      uint64
	closed   bool
	notify   chan struct{}

	depth         *obs.Gauge
	admitted      *obs.Counter
	quotaRejects  *obs.Counter
	fullRejects   *obs.Counter
	drainRejects  *obs.Counter
	tenantRejects map[string]*obs.Counter
	reg           *obs.Registry
}

// NewAdmission builds an admission controller. maxQueue bounds waiting
// tickets (not running ones); quota bounds one tenant's queued+running
// total, 0 meaning unlimited.
func NewAdmission(d Discipline, maxQueue, quota int, reg *obs.Registry) *Admission {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Admission{
		d:        d,
		maxQueue: maxQueue,
		quota:    quota,
		inUse:    make(map[string]int),
		notify:   make(chan struct{}, 1),

		depth:         reg.Gauge("service.admission.depth"),
		admitted:      reg.Counter("service.admission.admitted"),
		quotaRejects:  reg.Counter("service.admission.rejected.quota"),
		fullRejects:   reg.Counter("service.admission.rejected.saturated"),
		drainRejects:  reg.Counter("service.admission.rejected.draining"),
		tenantRejects: make(map[string]*obs.Counter),
		reg:           reg,
	}
}

// Discipline reports the active policy's name.
func (a *Admission) Discipline() string { return a.d.Name() }

// Depth reports how many tickets are waiting (not running).
func (a *Admission) Depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.d.Len()
}

// Submit admits the experiment or explains why not (ErrQuota,
// ErrSaturated, ErrDraining). On success the tenant's in-use count is
// charged until Done.
func (a *Admission) Submit(exp *Experiment, pri int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		a.drainRejects.Add(1)
		return ErrDraining
	}
	if a.quota > 0 && a.inUse[exp.Tenant] >= a.quota {
		a.quotaRejects.Add(1)
		a.tenantRejectLocked(exp.Tenant).Add(1)
		return fmt.Errorf("%w: tenant %q has %d experiments in flight (quota %d)",
			ErrQuota, exp.Tenant, a.inUse[exp.Tenant], a.quota)
	}
	if a.maxQueue > 0 && a.d.Len() >= a.maxQueue {
		a.fullRejects.Add(1)
		a.tenantRejectLocked(exp.Tenant).Add(1)
		return fmt.Errorf("%w: %d waiting", ErrSaturated, a.d.Len())
	}
	a.seq++
	a.inUse[exp.Tenant]++
	a.d.Push(&Ticket{exp: exp, pri: pri, seq: a.seq})
	a.depth.Set(int64(a.d.Len()))
	a.admitted.Add(1)
	select {
	case a.notify <- struct{}{}:
	default:
	}
	return nil
}

// tenantRejectLocked returns the per-tenant reject counter, creating it
// on first use (service.tenant.rejects.<tenant>).
func (a *Admission) tenantRejectLocked(tenant string) *obs.Counter {
	c, ok := a.tenantRejects[tenant]
	if !ok {
		c = a.reg.Counter("service.tenant.rejects." + tenant)
		a.tenantRejects[tenant] = c
	}
	return c
}

// Next blocks until a ticket is available, the controller closes (nil,
// false), or ctx is cancelled (nil, false). The caller must call Done
// with the ticket's tenant when the work finishes.
func (a *Admission) Next(ctx context.Context) (*Ticket, bool) {
	for {
		a.mu.Lock()
		t := a.d.Pop()
		closed := a.closed
		a.depth.Set(int64(a.d.Len()))
		a.mu.Unlock()
		if t != nil {
			return t, true
		}
		if closed {
			return nil, false
		}
		select {
		case <-a.notify:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// Done releases the tenant's in-use charge taken by Submit.
func (a *Admission) Done(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inUse[tenant] > 0 {
		a.inUse[tenant]--
		if a.inUse[tenant] == 0 {
			delete(a.inUse, tenant)
		}
	}
}

// Close refuses further Submits and unparks waiters once the queue
// empties. Already-queued tickets are still handed out: Drain decides
// whether to run or abort them.
func (a *Admission) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	close(a.notify)
}

// Flush removes and returns every waiting ticket, for drain paths that
// abort queued work instead of running it.
func (a *Admission) Flush() []*Ticket {
	a.mu.Lock()
	defer a.mu.Unlock()
	var ts []*Ticket
	for {
		t := a.d.Pop()
		if t == nil {
			break
		}
		ts = append(ts, t)
	}
	a.depth.Set(0)
	return ts
}
