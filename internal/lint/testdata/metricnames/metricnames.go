// Package metricnames is the metricnames corpus.
package metricnames

import (
	"fmt"
	"strconv"

	"lint.test/corpus/metrics"
)

func register(r *metrics.Registry, site int, txnID uint64) {
	s := r.Scope("site", strconv.Itoa(site)) // bounded small-int label: fine

	s.Counter("otp_commits_total") // conformant
	s.Histogram("otp_commit_latency_seconds")
	s.SizeHistogram("otp_batch_size") // size histograms are unitless
	s.Gauge("otp_pending")
	s.Func("otp_last_to_index", func() float64 { return 0 })

	s.Counter("otp_aborts")                                                     // want `counter "otp_aborts" must end in _total`
	s.Histogram("otp_sync_latency")                                             // want `duration histogram "otp_sync_latency" must end in _seconds`
	s.Gauge("otp_queue_total")                                                  // want `gauge "otp_queue_total" must not end in _total`
	s.Counter("OTP_Retries_Total")                                              // want `metric name "OTP_Retries_Total" is not snake_case`
	s.Counter("otp_" + strconv.Itoa(site))                                      // want `metric name must be a compile-time constant string`
	s.Gauge("otp_commits_total")                                                // want `metric "otp_commits_total" registered as Gauge here but as Counter elsewhere` `gauge "otp_commits_total" must not end in _total`
	s.With("txn_id", strconv.FormatUint(txnID, 10)).Counter("otp_ops_total")    // want `label key "txn_id" names per-transaction identity`
	s.With("peer", fmt.Sprintf("%d->%d", site, site+1)).Counter("otp_rx_total") // want `label value built with fmt.Sprintf`
	s.With("Shard-ID", "3").Counter("otp_tx_total")                             // want `label key "Shard-ID" is not snake_case`
	s.With("shard", strconv.Itoa(site))
}
