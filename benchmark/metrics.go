package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark prints: its unit, which
// direction is better, and — for end-to-end metrics — the share of the
// parent's median by which it may worsen before a change counts as a
// regression. BENCHMARK.json at the repository root carries the same
// table; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the offload sees. The same names
// are reported on every workload, measured with tracing off.
//
// The two timings are the 5th percentile of the run's requests, not the
// median (see gatedQuantile): the 2-core box the benchmark runs on shares
// its host, and for minutes at a time a neighbour slows most requests of
// a run by 30-100 % while the fastest twentieth still run undisturbed.
// Their bounds are the widest the driver allows because even that
// percentile moves by 10-20 % between a quiet and a busy spell (README,
// "Bounds").
//
// These are printed by the untraced run but not gated. failed_share must
// be exactly 0, and a metric whose parent median is 0 has no relative
// bound; the result line carries it as the attempted/failed counts.
// request_ms_p50, client_ms_p50 and requests_per_s (in a closed loop the
// callers divided by the mean request time, so the least steady of all)
// swing by a third and more between identical runs, request_ms_p90 by
// still more; the traced run reports them as per-layer metrics.
var endToEnd = []metricDef{
	{"request_ms_p05", "ms", "lower", 0.25},
	{"client_ms_p05", "ms", "lower", 0.25},
	{"wire_bytes_per_request", "B", "lower", 0.001},
	{"alloc_kb_per_request", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists every layer metric by module. A traced run reports all
// of them; one a workload does not measure reads 0 there (see README,
// "Which traced run measures what").
var perLayer = []metricDef{
	// nn: the traced lenetsm-pipe request, partitioned.
	{Name: "nn.client_self_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.server_conv1_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.server_conv2_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.server_fc_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.server_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.server_encode_send_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.accounted_share", Unit: "ratio", Better: "higher"},
	{Name: "nn.client_model_share", Unit: "ratio", Better: "higher"},

	// core: layer replay at LeNet-Sm's exact shapes.
	{Name: "core.conv1_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.conv2_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fc_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.conv1_batch1_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "core.conv2_batch1_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fc_batch1_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "core.conv2_batch2_item_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fc_batch2_item_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pack_input_us", Unit: "us", Better: "lower"},
	{Name: "core.extract_output_us", Unit: "us", Better: "lower"},
	{Name: "core.rotations_per_request", Unit: "count", Better: "lower"},
	{Name: "core.plainmults_per_request", Unit: "count", Better: "lower"},
	{Name: "core.adds_per_request", Unit: "count", Better: "lower"},
	{Name: "core.fc_plan_decompositions", Unit: "count", Better: "lower"},
	{Name: "core.fc_plan_lazy_products", Unit: "count", Better: "lower"},
	{Name: "core.fc_plan_moddowns", Unit: "count", Better: "lower"},

	// bfv: evaluator and client kernels.
	{Name: "bfv.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.rotate_hoisted8_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.rotate_lazy_ntt_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.accumulate_qp_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.finalize_moddown_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.prepare_mul_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.mulplain_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.add_us", Unit: "us", Better: "lower"},
	{Name: "bfv.b.encode_us", Unit: "us", Better: "lower"},
	{Name: "bfv.b.encrypt_seeded_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.b.decrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.b.decode_us", Unit: "us", Better: "lower"},
	{Name: "bfv.a.encrypt_seeded_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.a.decrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "bfv.b.keygen_s", Unit: "s", Better: "lower"},

	// ckks: client kernels at set C, evaluator kernels at PresetDistance.
	{Name: "ckks.c.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.c.encrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.c.decrypt_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.c.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.subplain_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.mulrelin_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rescale_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotate_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotate_hoisted8_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.rotsum_lazy8_ms", Unit: "ms", Better: "lower"},
	{Name: "ckks.keygen_s", Unit: "s", Better: "lower"},

	// apps/distance: the traced knn-ckks-pipe request.
	{Name: "distance.client_self_ms", Unit: "ms", Better: "lower"},
	{Name: "distance.server_compute_ms", Unit: "ms", Better: "lower"},
	{Name: "distance.collapsed_query_ms", Unit: "ms", Better: "lower"},

	// ring: one residue row, width 1.
	{Name: "ring.n4096.ntt_fwd_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n4096.ntt_inv_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n4096.mulcoeffs_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n4096.shoup_add2_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n4096.automorphism_ntt_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n8192.ntt_fwd_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n8192.ntt_inv_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n8192.mulcoeffs_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n8192.shoup_add2_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.n8192.automorphism_ntt_row_us", Unit: "us", Better: "lower"},
	{Name: "ring.vector_kernels", Unit: "count", Better: "higher"},

	// blake3 / sampling.
	{Name: "blake3.fill_64k_us", Unit: "us", Better: "lower"},
	{Name: "sampling.uniform_n8192_us", Unit: "us", Better: "lower"},
	{Name: "sampling.ternary_n8192_us", Unit: "us", Better: "lower"},
	{Name: "sampling.gaussian_n8192_us", Unit: "us", Better: "lower"},

	// protocol: codec and transports.
	{Name: "protocol.marshal_seeded_bfv_b_us", Unit: "us", Better: "lower"},
	{Name: "protocol.unmarshal_any_bfv_b_us", Unit: "us", Better: "lower"},
	{Name: "protocol.marshal_bfv_b_us", Unit: "us", Better: "lower"},
	{Name: "protocol.unmarshal_bfv_b_us", Unit: "us", Better: "lower"},
	{Name: "protocol.marshal_ckks_c_us", Unit: "us", Better: "lower"},
	{Name: "protocol.unmarshal_ckks_c_us", Unit: "us", Better: "lower"},
	{Name: "protocol.unmarshal_keybundle_ms", Unit: "ms", Better: "lower"},
	{Name: "protocol.pipe_rtt_128k_us", Unit: "us", Better: "lower"},
	{Name: "protocol.tcp_rtt_128k_us", Unit: "us", Better: "lower"},

	// serve: counters read after Serve has drained, plus client-observed
	// session costs.
	{Name: "serve.batch_rounds_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.plaincache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.serial_rescues", Unit: "count", Better: "lower"},
	{Name: "serve.sessions_rejected", Unit: "count", Better: "lower"},
	{Name: "serve.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.reconnect_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.solo_request_ms_p50", Unit: "ms", Better: "lower"},

	// fabric: a guard for the hardening work, gating nothing end to end.
	{Name: "fabric.router_added_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.reconnect_ms", Unit: "ms", Better: "lower"},

	// par.
	{Name: "par.width", Unit: "count", Better: "higher"},
	{Name: "par.for_overhead_us", Unit: "us", Better: "lower"},
	{Name: "par.allcores_request_ms", Unit: "ms", Better: "lower"},

	// trace, and what the traced run's requests say about the numbers the
	// untraced run only prints: throughput, the medians, and the tail
	// where the run has the samples to support one (0 otherwise).
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "request_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "request_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "request_ms_p99", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number with its unit, in the shape the
// result line carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for a fixed table of definitions; a name not
// in the table is a programming error and panics at once.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.values[d.Name] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic("benchmark: unknown metric " + name)
	}
	m.values[name] = v
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

// export renders every definition, measured or not, for the result line.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailPercentiles are the candidates the picker chooses among.
var tailPercentiles = []float64{0.50, 0.90, 0.99, 0.999}

// highestSupportedPercentile picks the highest candidate percentile
// that still has at least ten samples beyond it, the rule the
// choosing-metrics guide sets for reporting a tail. With fewer than
// twenty samples even the median is unsupported and it returns 0.
func highestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 {
			best = q
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// worseBy reports by what share of base the value cur is worse, in the
// metric's own direction (negative when cur is better).
func worseBy(d metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}
