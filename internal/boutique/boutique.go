// Package boutique ports Google's Online Boutique microservice demo
// (§4.1, Table 3) to SPRIGHT: the ten services, the six API chains with
// their exact call sequences, the Locust default workload mix, and a
// service-time model for the platform simulation.
//
// On the real dataplane the position-dependent call sequences (the
// frontend is revisited between most hops) are driven by a two-byte
// in-payload header {chain, step} and explicit Ctx.ForwardTo — the
// asynchronous continuation style §3.8 prescribes for porting synchronous
// request/response applications.
package boutique

import (
	"fmt"
	"time"
)

// Service indices as used in Table 3.
const (
	Frontend       = 1
	Currency       = 2
	ProductCatalog = 3
	Cart           = 4
	Recommendation = 5
	Shipping       = 6
	Checkout       = 7
	Payment        = 8
	Email          = 9
	Ad             = 10
	NumServices    = 10
)

var serviceNames = [NumServices + 1]string{
	"", "frontend", "currency", "productcatalog", "cart", "recommendation",
	"shipping", "checkout", "payment", "email", "ad",
}

// ServiceName returns the service name for a Table 3 index.
func ServiceName(i int) string {
	if i < 1 || i > NumServices {
		return fmt.Sprintf("svc-%d", i)
	}
	return serviceNames[i]
}

// ServiceTime is the modeled CPU service time per invocation. The paper
// does not publish the boutique's per-service times; these are small
// millisecond-scale values consistent with the measured chain response
// times (tens of ms at low load) — documented as a calibration choice in
// DESIGN.md.
func ServiceTime(i int) time.Duration {
	switch i {
	case Frontend:
		return 1 * time.Millisecond
	case Checkout:
		return 2 * time.Millisecond
	case Recommendation:
		return 1 * time.Millisecond
	case Currency:
		return 200 * time.Microsecond
	default:
		return 500 * time.Microsecond
	}
}

// ChainDef is one Table 3 row.
type ChainDef struct {
	Index    string
	API      string
	Sequence []int   // call sequence over service indices
	Weight   float64 // Locust default workload task weight
}

// Chains returns the six chains of Table 3 with the Locust default
// workload weights (index:1, setCurrency:2, browseProduct:10, viewCart:3,
// addToCart:2, checkout:1).
func Chains() []ChainDef {
	return []ChainDef{
		{
			Index: "Ch-1", API: `GET "/"`, Weight: 1,
			Sequence: []int{1, 2, 1, 3, 1, 4, 1, 2, 1, 10, 1},
		},
		{
			Index: "Ch-2", API: `POST "/setCurrency"`, Weight: 2,
			Sequence: []int{1},
		},
		{
			Index: "Ch-3", API: `GET "/product/$ID"`, Weight: 10,
			Sequence: []int{1, 3, 1, 2, 1, 4, 1, 2, 1, 5, 1, 4, 1, 10, 1},
		},
		{
			Index: "Ch-4", API: `GET "/cart"`, Weight: 3,
			Sequence: []int{1, 2, 1, 4, 1, 5, 1, 6, 1, 2, 1, 3, 1, 2, 1},
		},
		{
			Index: "Ch-5", API: `POST "/cart"`, Weight: 2,
			Sequence: []int{1, 3, 1, 4, 1},
		},
		{
			Index: "Ch-6", API: `POST "/cart/checkout"`, Weight: 1,
			Sequence: []int{1, 7, 4, 7, 3, 7, 2, 7, 6, 7, 2, 7, 8, 7, 6, 7, 4, 7, 9, 7, 1, 5, 1, 2, 1},
		},
	}
}

// Weights returns the chain weights in Chains() order.
func Weights() []float64 {
	cs := Chains()
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.Weight
	}
	return out
}
