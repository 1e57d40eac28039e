// The scaler's perfmodel advisor: a marginal-value forecast built from
// the Figure 5 bandwidth curves of the applications gkfwd is about to
// run. The elastic scaler consults it before every scale-up step — when
// the curves say another I/O node adds no aggregate bandwidth (every app
// is past its peak), growth is vetoed no matter how hot the queues look.
package main

import "repro/internal/perfmodel"

// marginalValueFor builds the forecast for the resolved -apps list. The
// pool is modeled as divided evenly among the apps (the arbiter's
// exclusive assignment makes shares disjoint), each app's bandwidth read
// off its curve at its share, and the forecast for growing from k to k+1
// nodes is the change in the summed bandwidth.
func marginalValueFor(running []app) func(k int) float64 {
	curves := make([]perfmodel.Curve, len(running))
	for i, a := range running {
		curves[i] = a.spec.Curve
	}
	value := func(k int) float64 {
		if len(curves) == 0 {
			return 0
		}
		share, extra := k/len(curves), k%len(curves)
		total := 0.0
		for i, c := range curves {
			s := share
			if i < extra {
				s++
			}
			total += interpMBps(c, s)
		}
		return total
	}
	return func(k int) float64 { return value(k+1) - value(k) }
}

// interpMBps reads a curve at k I/O nodes, linearly interpolating between
// the measured points (the paper reports 0,1,2,4,8) and holding flat past
// the last one — so the marginal value beyond every app's measured range
// is zero, which the scaler reads as "not worth provisioning".
func interpMBps(c perfmodel.Curve, k int) float64 {
	pts := c.Points()
	if len(pts) == 0 {
		return 0
	}
	if k <= pts[0].IONs {
		return pts[0].Bandwidth.MBps()
	}
	for i := 1; i < len(pts); i++ {
		if k <= pts[i].IONs {
			lo, hi := pts[i-1], pts[i]
			frac := float64(k-lo.IONs) / float64(hi.IONs-lo.IONs)
			return lo.Bandwidth.MBps() + frac*(hi.Bandwidth.MBps()-lo.Bandwidth.MBps())
		}
	}
	return pts[len(pts)-1].Bandwidth.MBps()
}
