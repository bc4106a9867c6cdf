package bench

import (
	"fmt"
	"strings"
	"time"

	"choco/internal/accel"
	"choco/internal/apps/distance"
	"choco/internal/core"
	"choco/internal/device"
	"choco/internal/nn"
	"choco/internal/params"
	"choco/internal/protocol"
)

// appCyclesPerValue models the client's plaintext nonlinear work
// (ReLU, pooling, requantization) per activation value.
const appCyclesPerValue = 12.0

// ClientBreakdown is one network's client active-compute profile under
// every acceleration mode (Figs 2 and 12).
type ClientBreakdown struct {
	Network string
	EncOps  int
	DecOps  int
	AppTime float64
	SEALSW  float64 // SEAL-algorithm software baseline
	CHOCOSW float64 // CHOCO algorithms, software kernels
	SIMDSW  float64 // CHOCO + measured AVX2 SIMD kernels (Amdahl over NTTFraction)
	HEAX    float64 // CHOCO + HEAX-style partial acceleration
	FPGA    float64 // CHOCO + encryption-FPGA partial acceleration
	TACO    float64 // CHOCO-TACO full acceleration
	Local   float64 // TFLite local inference
}

// chocoSWFactor is the paper's §5.5 finding that CHOCO's algorithmic
// optimizations alone (rotational redundancy, minimized parameters)
// improve the software client 1.7× over the SEAL-default baseline.
const chocoSWFactor = 1.7

// clientBreakdown prices enc encryptions and dec decryptions under every
// acceleration mode; uploads and downloads may differ in residue count.
func clientBreakdown(name string, enc, dec int, encShape, decShape device.HEShape, app, local float64) ClientBreakdown {
	client := device.DefaultClient()
	cfg := accel.PaperConfig()
	partial := func(covered float64) float64 {
		return float64(enc)*client.PartialHWEncryptTime(encShape, covered) +
			float64(dec)*client.PartialHWDecryptTime(decShape, covered)
	}
	swHE := float64(enc)*client.EncryptTime(encShape) + float64(dec)*client.DecryptTime(decShape)
	tacoHE := float64(enc)*cfg.EncryptTime(encShape) + float64(dec)*cfg.DecryptTime(decShape)
	return ClientBreakdown{
		Network: name,
		EncOps:  enc, DecOps: dec,
		AppTime: app,
		SEALSW:  chocoSWFactor*swHE + app,
		CHOCOSW: swHE + app,
		SIMDSW:  partial(device.SIMDCoveredSpeedup) + app,
		HEAX:    partial(device.HEAXCoveredSpeedup) + app,
		FPGA:    partial(device.FPGACoveredSpeedup) + app,
		TACO:    tacoHE + app,
		Local:   local,
	}
}

// appTime is the client's plaintext work between the linear layers.
func appTime(n *nn.Network) float64 {
	return float64(n.ActivationCount()) * appCyclesPerValue / device.DefaultClient().ClockHz
}

// ClientBreakdowns computes Fig 2/12's bars for all four networks.
func ClientBreakdowns() ([]ClientBreakdown, error) {
	var out []ClientBreakdown
	for _, n := range nn.Zoo() {
		enc, dec, err := n.EncDecCounts()
		if err != nil {
			return nil, err
		}
		shape := device.HEShape{N: n.Params.N(), K: n.HEShapeK()}
		out = append(out, clientBreakdown(n.Name, enc, dec, shape, shape, appTime(n), device.DefaultClient().LocalInferenceTime(n.MACs())))
	}
	return out, nil
}

// executableShapes returns what the split client/server really moves for
// n (nn.ExecutableRequestCost) with the shapes the client works at:
// uploads at the paper's k, replies at the residues left after the
// server's modulus switch.
func executableShapes(n *nn.Network) (rc nn.RequestCost, up, down device.HEShape, err error) {
	rc, err = nn.ExecutableRequestCost(n)
	up = device.HEShape{N: n.Params.N(), K: n.HEShapeK()}
	down = device.HEShape{N: n.Params.N(), K: len(n.Params.QBits) - n.Params.ReplyDrop()}
	return rc, up, down, err
}

// ExecutableBreakdown is the Fig 12 row of a network the split
// client/server can run, fed with the executable's own counts instead of
// CommPlan's: one encryption per upload, one decryption per reply, each
// reply decrypted at the residue count it arrives with.
func ExecutableBreakdown(n *nn.Network) (ClientBreakdown, error) {
	rc, up, down, err := executableShapes(n)
	if err != nil {
		return ClientBreakdown{}, err
	}
	return clientBreakdown(n.Name+"-exec", rc.UpCiphertexts, rc.DownCiphertexts, up, down,
		appTime(n), device.DefaultClient().LocalInferenceTime(n.MACs())), nil
}

// Fig2 renders the motivation characterization: software client HE
// time dominates and partial hardware cannot fix it.
func Fig2() (string, error) {
	rows, err := ClientBreakdowns()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: client active compute per single-image inference (seconds)\n")
	fmt.Fprintf(&b, "%-9s %5s %5s %12s %12s %12s %12s %12s %12s\n",
		"Network", "#enc", "#dec", "SEAL-SW", "SIMD-SW", "HEAX-bound", "FPGA-bound", "app-ops", "local")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %5d %5d %12.4f %12.4f %12.4f %12.4f %12.6f %12.4f\n",
			r.Network, r.EncOps, r.DecOps, r.SEALSW, r.SIMDSW, r.HEAX, r.FPGA, r.AppTime, r.Local)
	}
	// The >99% HE-share claim.
	for _, r := range rows {
		share := 1 - r.AppTime/r.SEALSW
		fmt.Fprintf(&b, "%s: HE share of software client time %.2f%%\n", r.Network, share*100)
	}
	return b.String(), nil
}

// Fig12 extends Fig 2 with the CHOCO-software and CHOCO-TACO bars.
func Fig12() (string, []ClientBreakdown, error) {
	rows, err := ClientBreakdowns()
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12: client active compute with CHOCO and CHOCO-TACO (seconds)\n")
	fmt.Fprintf(&b, "%-9s %12s %12s %12s %12s %12s %12s\n",
		"Network", "SEAL-SW", "CHOCO-SW", "+HEAX", "+FPGA", "CHOCO-TACO", "local")
	var sumSpeedSW, sumSpeedLocal, sumPartialVsLocal float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %12.4f %12.4f %12.4f %12.4f %12.6f %12.4f\n",
			r.Network, r.SEALSW, r.CHOCOSW, r.HEAX, r.FPGA, r.TACO, r.Local)
		sumSpeedSW += r.CHOCOSW / r.TACO
		sumSpeedLocal += r.Local / r.TACO
		sumPartialVsLocal += r.HEAX / r.Local
	}
	// The same bars from what the executable moves: 4 replies where the
	// model condenses to 3, each decrypted at one residue (the model rows
	// price every decryption at the paper's k = 3). Not in the averages.
	exec, err := ExecutableBreakdown(nn.LeNetSmall())
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(&b, "%-12s %9.4f %12.4f %12.4f %12.4f %12.6f %12.4f  (%d enc, %d dec at the reply level)\n",
		exec.Network, exec.SEALSW, exec.CHOCOSW, exec.HEAX, exec.FPGA, exec.TACO, exec.Local, exec.EncOps, exec.DecOps)
	n := float64(len(rows))
	fmt.Fprintf(&b, "average TACO speedup over CHOCO-SW: %.1f× (paper: 121×)\n", sumSpeedSW/n)
	fmt.Fprintf(&b, "average TACO vs local inference: %.2f× faster (paper: 2.2×)\n", sumSpeedLocal/n)
	fmt.Fprintf(&b, "average partial-HW client vs local: %.1f× slower (paper: 14.5×)\n", sumPartialVsLocal/n)
	return b.String(), rows, nil
}

// Fig7 runs the design-space exploration.
func Fig7() (string, error) {
	shape := device.HEShape{N: 8192, K: 3}
	points := accel.Explore(shape)
	frontier := accel.ParetoFrontier(points)
	chosen, ok := accel.SelectOperatingPoint(points, 0.200, 0.01)
	if !ok {
		return "", fmt.Errorf("bench: no operating point under 200 mW")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7: design space exploration at (N=8192, k=3)\n")
	fmt.Fprintf(&b, "configurations evaluated: %d (paper: 31,340)\n", len(points))
	fmt.Fprintf(&b, "pareto frontier size (time × power × area): %d\n", len(frontier))
	fmt.Fprintf(&b, "chosen point (≤200 mW, within 1%% of fastest, min area):\n")
	fmt.Fprintf(&b, "  %+v\n", chosen.Config)
	fmt.Fprintf(&b, "  time %.3f ms  power %.1f mW  area %.1f mm²  energy %.4f mJ\n",
		chosen.TimeS*1e3, chosen.PowerW*1e3, chosen.AreaMM2, chosen.EnergyJ*1e3)
	fmt.Fprintf(&b, "paper's point: 0.66 ms, ≤200 mW, 19.3 mm², 0.1228 mJ\n")
	fmt.Fprintf(&b, "frontier extremes:\n")
	if len(frontier) > 0 {
		fmt.Fprintf(&b, "  fastest: %.3f ms at %.0f mW, %.1f mm²\n",
			frontier[0].TimeS*1e3, frontier[0].PowerW*1e3, frontier[0].AreaMM2)
		last := frontier[len(frontier)-1]
		fmt.Fprintf(&b, "  cheapest: %.3f ms at %.0f mW, %.1f mm²\n",
			last.TimeS*1e3, last.PowerW*1e3, last.AreaMM2)
	}
	return b.String(), nil
}

// Fig8Row is one (N,k) scaling point.
type Fig8Row struct {
	N, K                   int
	SWTime, HWTime         float64
	SWEnergy, HWEnergy     float64
	Speedup, EnergySavings float64
}

// Fig8 compares hardware and software encryption across parameter
// shapes.
func Fig8() (string, []Fig8Row, error) {
	client := device.DefaultClient()
	cfg := accel.PaperConfig()
	shapes := []device.HEShape{
		{N: 1024, K: 1}, {N: 2048, K: 1}, {N: 4096, K: 2},
		{N: 8192, K: 3}, {N: 16384, K: 8}, {N: 32768, K: 16},
	}
	var rows []Fig8Row
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: encryption time & energy vs (N, k), software IMX6 vs CHOCO-TACO\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %10s %12s %12s %10s\n",
		"(N,k)", "SW time", "HW time", "speedup", "SW energy", "HW energy", "savings")
	for _, s := range shapes {
		swT := client.EncryptTime(s)
		hwT := cfg.EncryptTime(s)
		swE := client.Energy(swT)
		hwE := cfg.EncryptEnergyJ(s)
		r := Fig8Row{
			N: s.N, K: s.K,
			SWTime: swT, HWTime: hwT, SWEnergy: swE, HWEnergy: hwE,
			Speedup: swT / hwT, EnergySavings: swE / hwE,
		}
		rows = append(rows, r)
		note := ""
		if s.N == 32768 {
			note = " (paper omits the SW baseline: exceeds IMX6 memory)"
		}
		fmt.Fprintf(&b, "(%d,%d)%*s %10.1f ms %9.2f ms %9.0f× %9.1f mJ %9.4f mJ %9.0f×%s\n",
			s.N, s.K, 14-len(fmt.Sprintf("(%d,%d)", s.N, s.K)), "",
			swT*1e3, hwT*1e3, r.Speedup, swE*1e3, hwE*1e3, r.EnergySavings, note)
	}
	return b.String(), rows, nil
}

// priorComm holds reported total communication (MB) of prior
// privacy-preserving inference protocols for MNIST- and CIFAR-scale
// single-image inference, as compared against in Fig 10. Values are
// the published offline+online totals those papers report.
var priorComm = []struct {
	Protocol string
	Dataset  string
	MB       float64
}{
	{"MiniONN", "MNIST", 657.5},
	{"Gazelle", "MNIST", 234},
	{"LoLa", "MNIST", 36},
	{"SecureML", "MNIST", 1900},
	{"MiniONN", "CIFAR", 9272},
	{"Gazelle", "CIFAR", 1236},
	{"XONN", "CIFAR", 2599},
	{"Delphi", "CIFAR", 2400},
}

// Fig10 compares CHOCO's measured communication to prior protocols.
func Fig10() (string, error) {
	lenet := nn.LeNetLarge()
	sqz := nn.SqueezeNet()
	lenetB, err := lenet.CommBytes()
	if err != nil {
		return "", err
	}
	sqzB, err := sqz.CommBytes()
	if err != nil {
		return "", err
	}
	choco := map[string]float64{"MNIST": float64(lenetB) / 1e6, "CIFAR": float64(sqzB) / 1e6}

	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10: single-image inference communication vs prior protocols\n")
	fmt.Fprintf(&b, "CHOCO (measured): MNIST/LeNetLg %.2f MB, CIFAR/SqueezeNet %.2f MB\n",
		choco["MNIST"], choco["CIFAR"])
	fmt.Fprintf(&b, "%-10s %-7s %10s %12s\n", "Protocol", "Dataset", "MB", "CHOCO wins")
	minR, maxR := 1e18, 0.0
	for _, p := range priorComm {
		ratio := p.MB / choco[p.Dataset]
		if ratio < minR {
			minR = ratio
		}
		if ratio > maxR {
			maxR = ratio
		}
		fmt.Fprintf(&b, "%-10s %-7s %10.1f %11.0f×\n", p.Protocol, p.Dataset, p.MB, ratio)
	}
	fmt.Fprintf(&b, "improvement range: %.0f×–%.0f× (paper: 14×–2948×)\n", minR, maxR)
	return b.String(), nil
}

// Fig11Row is one (variant, geometry) tradeoff point.
type Fig11Row struct {
	Variant    distance.Variant
	Dims       int
	Points     int
	ServerTime float64
	ClientTime float64
	CommBytes  int64
}

// Fig11 evaluates the five distance-kernel packings across
// representative dimension/point geometries using the analytic cost
// model (validated against the live kernel in the distance package
// tests) and the device models.
func Fig11() (string, []Fig11Row, error) {
	p := distance.PresetDistance()
	slots := p.Slots()
	shape := device.HEShape{N: p.N(), K: len(p.QBits) + 1}
	server := device.DefaultServer()
	client := device.DefaultClient()
	cfg := accel.PaperConfig()
	ctBytes := int64(p.CiphertextBytes())

	geoms := []struct{ d, m int }{{4, 512}, {16, 256}, {128, 64}}
	var rows []Fig11Row
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11: distance-kernel packing tradeoffs (CKKS)\n")
	fmt.Fprintf(&b, "%-26s %5s %7s %12s %12s %12s\n", "Variant", "dims", "points", "server (s)", "client (s)", "comm (MB)")
	for _, g := range geoms {
		for _, v := range distance.Variants() {
			c := distance.AnalyzeCost(v, g.m, g.d, slots)
			srvT := server.OpTime(shape, c.Server)
			cliT := float64(c.UpCts)*cfg.CKKSEncryptTime(client, shape) +
				float64(c.DownCts)*cfg.CKKSDecryptTime(client, shape)
			comm := int64(c.TotalCts()) * ctBytes
			rows = append(rows, Fig11Row{Variant: v, Dims: g.d, Points: g.m,
				ServerTime: srvT, ClientTime: cliT, CommBytes: comm})
			fmt.Fprintf(&b, "%-26s %5d %7d %12.4f %12.4f %12.2f\n",
				v.String(), g.d, g.m, srvT, cliT, float64(comm)/1e6)
		}
	}
	fmt.Fprintf(&b, "finding (§5.4): collapsed point-major minimizes client time and communication\n")
	fmt.Fprintf(&b, "at the cost of extra server work — the client-optimized choice.\n")
	return b.String(), rows, nil
}

// Fig11Live runs every packing variant through the split deployment —
// distance.Client and distance.Server joined by a pipe — at a small
// geometry, measuring wall time and wire traffic (the analytic Fig11
// covers paper-scale geometries; this grounds it in reality).
func Fig11Live() (string, error) {
	const m, d = 16, 8
	points := make([][]float64, m)
	for i := range points {
		points[i] = make([]float64, d)
		for j := range points[i] {
			points[i][j] = float64((i*7+j*3)%11)/5 - 1
		}
	}
	server, err := distance.NewServer(distance.PresetDistanceTest(), points)
	if err != nil {
		return "", err
	}
	client, err := distance.NewClient(distance.PresetDistanceTest(), m, d, [32]byte{61})
	if err != nil {
		return "", err
	}
	clientEnd, serverEnd := protocol.NewPipe()
	served := make(chan error, 1)
	go func() { served <- server.Serve(serverEnd) }() // a failure reaches the client as a session error
	defer func() {
		clientEnd.Close() // ends the session; then wait for the server half
		<-served
	}()
	if err := client.Setup(clientEnd); err != nil {
		return "", err
	}
	q := make([]float64, d)
	for j := range q {
		q[j] = float64(j%5)/4 - 0.5
	}
	want := distance.PlainDistances(points, q)

	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11 (live): measured distance-kernel variants, %d points × %d dims\n", m, d)
	fmt.Fprintf(&b, "%-26s %12s %8s %8s %12s %10s\n", "Variant", "wall time", "up cts", "dn cts", "comm (KB)", "max err")
	for _, v := range distance.Variants() {
		start := time.Now()
		got, stats, err := client.Query(q, v, clientEnd)
		elapsed := time.Since(start).Round(time.Millisecond)
		if err != nil {
			return "", err
		}
		maxErr := 0.0
		for i := range want {
			if e := abs(got[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		fmt.Fprintf(&b, "%-26s %12v %8d %8d %12.1f %10.2e\n",
			v.String(), elapsed, stats.UpCiphertexts, stats.DownCiphertexts,
			float64(stats.TotalBytes())/1024, maxErr)
	}
	return b.String(), nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Fig13 renders the PageRank communication-vs-iterations exploration.
func Fig13() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13: client-aided PageRank communication vs total iterations\n")
	fmt.Fprintf(&b, "%-7s %6s %8s %10s %14s %14s\n", "Scheme", "total", "set", "refreshes", "ct bytes", "total comm")
	taco := 2 * 8192 * 3 * 8
	for _, total := range []int{8, 12, 16, 24, 32, 48} {
		bp := params.PageRankPlansBFV(total, 24, 1024, 1)
		cp := params.PageRankPlansCKKS(total, 30, 1024, 1)
		emit := func(scheme string, plans []params.RefreshPlan) {
			best := plans[0]
			for _, pl := range plans {
				fmt.Fprintf(&b, "%-7s %6d %8d %10d %14d %14d\n",
					scheme, pl.TotalIterations, pl.SetSize, pl.Refreshes, pl.CtxBytes, pl.TotalCommBytes)
				if pl.TotalCommBytes < best.TotalCommBytes {
					best = pl
				}
			}
			mark := " "
			if best.CtxBytes <= taco {
				mark = " [TACO-supported]"
			}
			fmt.Fprintf(&b, "%-7s %6d  optimum: set=%d, %d bytes%s\n",
				scheme, total, best.SetSize, best.TotalCommBytes, mark)
		}
		emit("BFV", bp)
		emit("CKKS", cp)
	}
	fmt.Fprintf(&b, "finding (§5.6): frequent communication of small ciphertexts beats fully\n")
	fmt.Fprintf(&b, "encrypted execution, and the optima fit CHOCO-TACO's N≤8192, k≤3 window.\n")
	return b.String(), nil
}

// Fig14Row is one network's end-to-end comparison. PaperCommGain
// recomputes the energy delta using the paper's Table 5 communication
// volume — our redundant input packing ships ~2× the paper's bytes, so
// both views are reported.
type Fig14Row struct {
	Network                string
	ChocoTime, LocalTime   float64
	ChocoEnergy, LocalGain float64
	LocalEnergy            float64
	PaperCommGain          float64
}

// Fig14 compares end-to-end time and energy of CHOCO-TACO offloading
// over Bluetooth against local TFLite inference.
func Fig14() (string, []Fig14Row, error) {
	client := device.DefaultClient()
	link := device.DefaultLink()
	server := device.DefaultServer()
	cfg := accel.PaperConfig()

	// offload prices one request: enc uploads and dec downloads on TACO at
	// their shapes, the plaintext layers, the link and the server.
	offload := func(n *nn.Network, enc, dec int, up, down device.HEShape, bytes int64, srvOps core.OpCounts) (time, energy float64) {
		appT := appTime(n)
		time = float64(enc)*cfg.EncryptTime(up) + float64(dec)*cfg.DecryptTime(down) +
			appT + link.Time(bytes) + server.OpTime(up, srvOps)
		energy = float64(enc)*cfg.EncryptEnergyJ(up) + float64(dec)*cfg.DecryptEnergyJ(down) +
			client.Energy(appT) + link.Energy(bytes)
		return time, energy
	}

	var rows []Fig14Row
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14: end-to-end single-image inference, CHOCO-TACO vs local TFLite\n")
	fmt.Fprintf(&b, "%-9s %12s %12s %14s %14s %10s\n",
		"Network", "choco (s)", "local (s)", "choco (mJ)", "local (mJ)", "Δenergy")
	for _, n := range nn.Zoo() {
		enc, dec, err := n.EncDecCounts()
		if err != nil {
			return "", nil, err
		}
		comm, err := n.CommBytes()
		if err != nil {
			return "", nil, err
		}
		shape := device.HEShape{N: n.Params.N(), K: n.HEShapeK()}

		// Server op counts from the analytic per-layer model.
		var srvOps core.OpCounts
		plan, err := n.CommPlan()
		if err != nil {
			return "", nil, err
		}
		for _, lc := range plan {
			// Rotations ≈ one per alignment; multiplies dominate.
			srvOps.Rotations += 32
			srvOps.PlainMults += 64
			srvOps.Adds += 64
			_ = lc
		}
		chocoTime, chocoEnergy := offload(n, enc, dec, shape, shape, comm, srvOps)
		paperCommEnergy := chocoEnergy - link.Energy(comm) + link.Energy(int64(n.PaperCommMB*1e6))
		localTime := client.LocalInferenceTime(n.MACs())
		localEnergy := client.Energy(localTime)
		rows = append(rows, Fig14Row{
			Network: n.Name, ChocoTime: chocoTime, LocalTime: localTime,
			ChocoEnergy: chocoEnergy * 1e3, LocalEnergy: localEnergy * 1e3,
			LocalGain:     1 - chocoEnergy/localEnergy,
			PaperCommGain: 1 - paperCommEnergy/localEnergy,
		})
		fmt.Fprintf(&b, "%-9s %12.3f %12.4f %14.2f %14.2f %9.0f%% (at paper comm: %.0f%%)\n",
			n.Name, chocoTime, localTime, chocoEnergy*1e3, localEnergy*1e3,
			(1-chocoEnergy/localEnergy)*100, (1-paperCommEnergy/localEnergy)*100)
	}
	// LeNet-Sm as the split client/server runs it: the wire's bytes (frame
	// overhead included), decryptions at the reply level, the server's
	// planned operation counts.
	exec := nn.LeNetSmall()
	rc, up, down, err := executableShapes(exec)
	if err != nil {
		return "", nil, err
	}
	execTime, execEnergy := offload(exec, rc.UpCiphertexts, rc.DownCiphertexts, up, down, rc.WireBytes, rc.Server)
	localTime := client.LocalInferenceTime(exec.MACs())
	fmt.Fprintf(&b, "%-12s %9.3f %12.4f %14.2f %14.2f %9.0f%% (executable: %d B on the wire, replies at %d of %d residues)\n",
		exec.Name+"-exec", execTime, localTime, execEnergy*1e3, client.Energy(localTime)*1e3,
		(1-execEnergy/client.Energy(localTime))*100, rc.WireBytes, down.K, len(exec.Params.QBits))
	fmt.Fprintf(&b, "paper: VGG sees up to 37%% energy savings; SqueezeNet breaks even or loses;\n")
	fmt.Fprintf(&b, "communication dominates time (~24× average overhead vs local compute).\n")
	return b.String(), rows, nil
}

// Fig15Point is one conv-layer microbenchmark point.
type Fig15Point struct {
	Image, Channels, Filter int
	MACs                    int64
	CommMB                  float64
	Source                  string
}

// Fig15 sweeps convolution-layer shapes, plotting MACs against
// per-layer communication, plus the real VGG16 and SqueezeNet layers.
func Fig15() (string, []Fig15Point, error) {
	var pts []Fig15Point
	preset := nn.VGG16().Params

	// Per-layer communication counts the dense activation volumes sent
	// and received (the paper's analytical axis: "the amount of
	// communication required to send and receive the ciphertexts that
	// contain each layer's inputs"), so filter size affects MACs only.
	denseComm := func(inActs, outActs int64) float64 {
		slots := int64(preset.N())
		cts := (inActs+slots-1)/slots + (outActs+slots-1)/slots
		return float64(cts) * float64(preset.CiphertextBytes()) / 1e6
	}
	add := func(img, ch, filter int, source string) {
		acts := int64(img) * int64(img) * int64(ch)
		pts = append(pts, Fig15Point{
			Image: img, Channels: ch, Filter: filter,
			MACs:   acts * int64(ch) * int64(filter) * int64(filter),
			CommMB: denseComm(acts, acts),
			Source: source,
		})
	}
	for img := 2; img <= 32; img *= 2 {
		for ch := 32; ch <= 512; ch *= 2 {
			for _, f := range []int{1, 3} {
				add(img, ch, f, "micro")
			}
		}
	}
	// Real network layers.
	for _, n := range []*nn.Network{nn.VGG16(), nn.SqueezeNet()} {
		for _, s := range n.ConvShapes() {
			pts = append(pts, Fig15Point{
				Image: s.InH, Channels: s.InC, Filter: s.KH,
				MACs:   s.MACs(),
				CommMB: denseComm(s.InActivations(), s.OutActivations()),
				Source: n.Name,
			})
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15: computation (MACs) vs communication (MB) per convolution layer\n")
	fmt.Fprintf(&b, "%-8s %6s %9s %7s %14s %10s\n", "source", "image", "channels", "filter", "MACs", "comm (MB)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8s %6d %9d %7d %14d %10.2f\n",
			p.Source, p.Image, p.Channels, p.Filter, p.MACs, p.CommMB)
	}
	fmt.Fprintf(&b, "interpretation (§5.8): layers with more MACs per MB (larger filters) gain\n")
	fmt.Fprintf(&b, "from offload; filter size raises MACs without changing communication.\n")
	return b.String(), pts, nil
}

// EncDecSpeedups reports the headline §4.5/§4.6 numbers.
func EncDecSpeedups() string {
	client := device.DefaultClient()
	cfg := accel.PaperConfig()
	s := device.HEShape{N: 8192, K: 3}
	var b strings.Builder
	fmt.Fprintf(&b, "CHOCO-TACO headline results at (N=8192, k=3):\n")
	fmt.Fprintf(&b, "encryption: %.2f ms HW vs %.0f ms SW → %.0f× (paper 417×)\n",
		cfg.EncryptTime(s)*1e3, client.EncryptTime(s)*1e3, client.EncryptTime(s)/cfg.EncryptTime(s))
	fmt.Fprintf(&b, "decryption: %.2f ms HW vs %.0f ms SW → %.0f× (paper 125×)\n",
		cfg.DecryptTime(s)*1e3, client.DecryptTime(s)*1e3, client.DecryptTime(s)/cfg.DecryptTime(s))
	fmt.Fprintf(&b, "encryption energy: %.4f mJ HW vs %.1f mJ SW → %.0f× (paper 603×)\n",
		cfg.EncryptEnergyJ(s)*1e3, client.Energy(client.EncryptTime(s))*1e3,
		client.Energy(client.EncryptTime(s))/cfg.EncryptEnergyJ(s))
	big := device.HEShape{N: 32768, K: 16}
	fmt.Fprintf(&b, "largest shape (32768,16): %.0f× time, %.0f× energy (paper: up to 1094×/648×)\n",
		client.EncryptTime(big)/cfg.EncryptTime(big),
		client.Energy(client.EncryptTime(big))/cfg.EncryptEnergyJ(big))
	return b.String()
}
