package platform

import (
	"fmt"
	"sort"
	"sync"
)

// FeatureCB produces the current value of a platform feature, e.g. system
// power draw, temperature, or the number of available hardware contexts.
// This is the callback the mechanism developer registers (Figure 9:
// DoPE::registerCB / DoPE::getValue).
type FeatureCB func() float64

// Features is the platform feature registry. Mechanism developers register
// named features with callbacks; mechanisms query current values during
// reconfiguration. Safe for concurrent use.
type Features struct {
	mu  sync.RWMutex
	cbs map[string]FeatureCB
}

// NewFeatures returns an empty registry.
func NewFeatures() *Features {
	return &Features{cbs: make(map[string]FeatureCB)}
}

// Register installs cb as the producer for feature name, replacing any
// previous registration. A nil cb removes the feature.
func (f *Features) Register(name string, cb FeatureCB) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cb == nil {
		delete(f.cbs, name)
		return
	}
	f.cbs[name] = cb
}

// Value returns the current value of the named feature.
func (f *Features) Value(name string) (float64, error) {
	f.mu.RLock()
	cb, ok := f.cbs[name]
	f.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("platform: unknown feature %q", name)
	}
	return cb(), nil
}

// Names returns the registered feature names in sorted order.
func (f *Features) Names() []string {
	f.mu.RLock()
	names := make([]string, 0, len(f.cbs))
	for n := range f.cbs {
		names = append(names, n)
	}
	f.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Well-known feature names used across the runtime and mechanisms.
const (
	// FeatureSystemPower is the instantaneous full-system power draw in
	// watts, as sampled through the (rate-limited) PDU.
	FeatureSystemPower = "SystemPower"
	// FeatureHardwareContexts is the number of hardware contexts available
	// to the application.
	FeatureHardwareContexts = "HardwareContexts"
	// FeatureBusyContexts is the number of currently occupied contexts.
	FeatureBusyContexts = "BusyContexts"
)
