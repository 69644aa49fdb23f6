package serve

import (
	"time"

	"distcolor/internal/obs"
)

// Stats aggregates the serving tier's job counters and latency
// distribution on obs instruments, so /v1/stats and /metrics read the very
// same state. Counting is a single atomic add; Snapshot derives p50/p99
// from the log-bucketed histogram in O(buckets) — the sort-on-every-
// snapshot ring buffer this replaced paid O(window log window) per scrape
// under a mutex. Percentiles are all-time, quantized to the histogram's
// log₂ bucket bounds.
//
// Terminal-status accounting has exactly one entry point
// (Server.recordTerminal): a job increments done/failed/cancelled once, no
// matter how many paths observe its end.
type Stats struct {
	enqueued  *obs.Counter
	coalesced *obs.Counter
	rejected  *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	latency   *obs.Histogram
}

// newStats wires the job counters into the registry under the
// distcolor_jobs_* families.
func newStats(reg *obs.Registry) *Stats {
	const statusHelp = "Jobs by terminal status."
	s := &Stats{
		enqueued:  reg.Counter("distcolor_jobs_enqueued_total", "Jobs accepted into the queue.", nil),
		coalesced: reg.Counter("distcolor_jobs_coalesced_total", "Submissions answered by an existing identical job.", nil),
		rejected:  reg.Counter("distcolor_jobs_rejected_total", "Submissions rejected by queue backpressure.", nil),
		done:      reg.Counter("distcolor_jobs_total", statusHelp, obs.Labels{"status": string(StatusDone)}),
		failed:    reg.Counter("distcolor_jobs_total", statusHelp, obs.Labels{"status": string(StatusFailed)}),
		cancelled: reg.Counter("distcolor_jobs_total", statusHelp, obs.Labels{"status": string(StatusCancelled)}),
		latency:   reg.Histogram("distcolor_job_seconds", "Job end-to-end latency (enqueue to terminal).", nil),
	}
	reg.GaugeFunc("distcolor_jobs_coalesced_ratio",
		"Fraction of submissions answered by coalescing.", nil, func() float64 {
			c, e := s.coalesced.Value(), s.enqueued.Value()
			if c+e == 0 {
				return 0
			}
			return float64(c) / float64(c+e)
		})
	return s
}

func (s *Stats) jobEnqueued()  { s.enqueued.Inc() }
func (s *Stats) jobCoalesced() { s.coalesced.Inc() }
func (s *Stats) jobRejected()  { s.rejected.Inc() }

// jobFinished records one job's terminal status and end-to-end latency.
// A non-empty traceID becomes the latency bucket's exemplar, linking the
// distribution back to one concrete traced job. Callers must guarantee
// once-per-job delivery (see Server.recordTerminal).
func (s *Stats) jobFinished(latency time.Duration, status JobStatus, traceID string) {
	switch status {
	case StatusFailed:
		s.failed.Inc()
	case StatusCancelled:
		s.cancelled.Inc()
	default:
		s.done.Inc()
	}
	s.latency.ObserveExemplar(latency.Seconds(), traceID)
}

// Snapshot is a point-in-time view of the serving statistics.
type Snapshot struct {
	JobsEnqueued  int64   `json:"jobs_enqueued"`
	JobsCoalesced int64   `json:"jobs_coalesced"`
	JobsRejected  int64   `json:"jobs_rejected"`
	JobsDone      int64   `json:"jobs_done"`
	JobsFailed    int64   `json:"jobs_failed"`
	JobsCancelled int64   `json:"jobs_cancelled"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	// LatencySampleTrace is the trace ID of the most recent traced job
	// latency observation — a concrete entry point (GET /v1/traces/{id})
	// into whatever the percentiles are summarizing.
	LatencySampleTrace string `json:"latency_sample_trace,omitempty"`
}

// Snapshot reads the current counters and histogram percentiles.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		JobsEnqueued:  s.enqueued.Value(),
		JobsCoalesced: s.coalesced.Value(),
		JobsRejected:  s.rejected.Value(),
		JobsDone:      s.done.Value(),
		JobsFailed:    s.failed.Value(),
		JobsCancelled: s.cancelled.Value(),
	}
	if s.latency.Count() > 0 {
		snap.LatencyP50Ms = s.latency.Quantile(50) * 1e3
		snap.LatencyP99Ms = s.latency.Quantile(99) * 1e3
	}
	if e, ok := s.latency.LastExemplar(); ok {
		snap.LatencySampleTrace = e.TraceID
	}
	return snap
}
