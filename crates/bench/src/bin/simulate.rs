//! Command-line front end: simulate one kernel on one configuration, or
//! a heterogeneous multi-accelerator SoC.
//!
//! ```sh
//! cargo run --release -p aladdin-bench --bin simulate -- \
//!     --kernel stencil-stencil3d --mem dma --opt full \
//!     --lanes 8 --partition 8 --bus-bits 64
//!
//! # Two accelerators sharing one bus: a cache-based spmv next to a
//! # DMA stencil launched 5k cycles later (Figure 3's ACCEL0/ACCEL1).
//! cargo run --release -p aladdin-bench --bin simulate -- \
//!     --multi spmv-crs:cache --multi stencil-stencil2d:dma:full:5000
//! ```

use aladdin_accel::DatapathConfig;
use aladdin_core::{
    simulate_multi, simulate_source, AcceleratorJob, DmaOptLevel, FlowSpec, SimHarness, SocConfig,
    TraceSource,
};
use aladdin_dse::{sweep_points, PointSpec};
use aladdin_ir::AtrcTrace;
use aladdin_spec::{parse_job, parse_mem_kind, parse_opt_level, CommonArgs, OutputFormat};
use aladdin_workloads::all_kernels;

struct Args {
    common: CommonArgs,
    kernel: String,
    trace: Option<String>,
    window: Option<usize>,
    mem: String,
    opt: DmaOptLevel,
    lanes: u32,
    partition: u32,
    bus_bits: u32,
    cache_kb: u64,
    cache_ports: u32,
    traffic_period: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--kernel NAME | --trace FILE.atrc] [--window NODES] \
         [--mem isolated|dma|cache] \
         [--opt baseline|pipelined|full] [--lanes N] [--partition N] \
         [--bus-bits 32|64] [--cache-kb N] [--cache-ports N] \
         [--traffic-period CYCLES] [--faults SEED] [--cache off|mem|full] \
         [--topology SPEC] [--json | --format human|json] [--list] \
         [--multi KERNEL:MEM[:OPT][:LAUNCH]]..."
    );
    eprintln!(
        "  --multi may be repeated; each spec adds one accelerator to a \
         shared SoC, e.g. --multi spmv-crs:cache --multi aes-aes:dma:full:5000"
    );
    eprintln!(
        "  --topology selects the interconnect: shared-bus (default), \
         crossbar[:RADIX], two-level[:CLUSTERS[:BRIDGE]], or \
         mesh:COLSxROWS[:HOP[:LINKBITS]]"
    );
    eprintln!(
        "  --trace streams an encoded .atrc binary trace through the windowed \
         scheduler in bounded memory; --window overrides the resident-node \
         window (and forces the windowed path for --kernel runs too)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        common: CommonArgs::new(),
        kernel: "stencil-stencil3d".to_owned(),
        trace: None,
        window: None,
        mem: "dma".to_owned(),
        opt: DmaOptLevel::Full,
        lanes: 4,
        partition: 4,
        bus_bits: 32,
        cache_kb: 4,
        cache_ports: 2,
        traffic_period: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        // The shared vocabulary (`--faults`, `--cache`, `--multi`,
        // `--json`/`--format`) parses exactly as it does for `sweep` and
        // `soclint`.
        match args.common.consume(&arg, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("simulate: {e}");
                usage();
            }
        }
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--list" => {
                for k in all_kernels() {
                    println!("{:<20} {}", k.name(), k.description());
                }
                std::process::exit(0);
            }
            "--kernel" => args.kernel = value(),
            "--trace" => args.trace = Some(value()),
            "--window" => args.window = Some(value().parse().unwrap_or_else(|_| usage())),
            "--mem" => args.mem = value(),
            "--opt" => {
                args.opt = parse_opt_level(&value()).unwrap_or_else(|e| {
                    eprintln!("simulate: --opt: {e}");
                    usage();
                });
            }
            "--lanes" => args.lanes = value().parse().unwrap_or_else(|_| usage()),
            "--partition" => args.partition = value().parse().unwrap_or_else(|_| usage()),
            "--bus-bits" => args.bus_bits = value().parse().unwrap_or_else(|_| usage()),
            "--cache-kb" => args.cache_kb = value().parse().unwrap_or_else(|_| usage()),
            "--cache-ports" => {
                args.cache_ports = value().parse().unwrap_or_else(|_| usage());
            }
            "--traffic-period" => {
                args.traffic_period = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    args
}

fn build_configs(args: &Args) -> (SocConfig, DatapathConfig) {
    let mut soc_cfg = SocConfig::default();
    soc_cfg.bus.width_bits = args.bus_bits;
    soc_cfg.cache.size_bytes = args.cache_kb * 1024;
    soc_cfg.cache.ports = args.cache_ports;
    if let Some(topology) = args.common.topology {
        soc_cfg.topology.topology = topology;
    }
    if let Some(period) = args.traffic_period {
        soc_cfg.traffic = Some(aladdin_core::TrafficConfig { period, bytes: 64 });
    }
    let dp = DatapathConfig {
        lanes: args.lanes,
        partition: args.partition,
        ..DatapathConfig::default()
    };
    (soc_cfg, dp)
}

fn run_multi(args: &Args, soc_cfg: &SocConfig, dp: DatapathConfig) -> ! {
    let jobs: Vec<AcceleratorJob> = args
        .common
        .multi
        .iter()
        .map(|spec| {
            parse_job(spec, dp).unwrap_or_else(|e| {
                eprintln!("--multi {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let harness = match args.common.harness() {
        Some(h) => {
            if args.common.format == OutputFormat::Human {
                println!("faults:   seed {}", args.common.faults_seed.expect("set"));
            }
            h
        }
        None => SimHarness::default(),
    };
    let report = aladdin_core::validate_multi_jobs(&jobs, soc_cfg);
    if !report.is_clean() {
        eprintln!("{}", report.to_human());
        if report.has_errors() {
            std::process::exit(1);
        }
    }
    match simulate_multi(&jobs, soc_cfg, &harness) {
        Ok(r) => {
            match args.common.format {
                OutputFormat::Human => {
                    println!(
                        "soc:      {} accelerators on {}, bus moved {} KB, {:.0}% utilized, \
                         done at {}",
                        r.accelerators.len(),
                        soc_cfg.topology.topology.spec_string(),
                        r.bus_bytes / 1024,
                        r.bus_utilization * 100.0,
                        r.end
                    );
                    for a in &r.accelerators {
                        println!(
                            "  {:<20} {:<10} launch {:>8}  data-in {:>8}  compute {:>8}  \
                             done {:>8}  latency {:>8}  bus {} KB",
                            a.kernel,
                            a.kind.to_string(),
                            a.launched,
                            a.data_in_done,
                            a.compute_done,
                            a.end,
                            a.latency(),
                            a.bus_bytes / 1024
                        );
                    }
                }
                OutputFormat::Json => {
                    let accels: Vec<String> = r
                        .accelerators
                        .iter()
                        .map(|a| {
                            format!(
                                "{{\"kernel\":\"{}\",\"mem\":\"{}\",\"launched\":{},\"end\":{},\"latency\":{},\"bus_bytes\":{}}}",
                                a.kernel,
                                a.kind,
                                a.launched,
                                a.end,
                                a.latency(),
                                a.bus_bytes
                            )
                        })
                        .collect();
                    println!(
                        "{{\"accelerators\":[{}],\"bus_bytes\":{},\"bus_utilization\":{},\"end\":{}}}",
                        accels.join(","),
                        r.bus_bytes,
                        r.bus_utilization,
                        r.end
                    );
                }
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{}", e.to_report().to_human());
            std::process::exit(1);
        }
    }
}

/// Stream an encoded `.atrc` trace through the windowed scheduler. Bypasses
/// the result cache: windowed runs are sound for any window but bit-exact
/// with the materialized path only when the window covers the largest
/// barrier round, so their results must never be cached.
fn run_trace(args: &Args, path: &str) -> ! {
    if !args.common.multi.is_empty() {
        eprintln!("simulate: --trace cannot be combined with --multi");
        usage();
    }
    let atrc = AtrcTrace::open(path).unwrap_or_else(|d| {
        eprintln!("simulate: {d}");
        std::process::exit(1);
    });
    let (soc_cfg, dp) = build_configs(args);
    let kind = parse_mem_kind(&args.mem, args.opt).unwrap_or_else(|e| {
        eprintln!("simulate: {e}");
        usage();
    });
    let mut spec = FlowSpec::new(kind);
    if let Some(w) = args.window {
        spec = spec.with_window(w);
    }
    let harness = args.common.harness();
    if let Some(h) = &harness {
        if args.common.format == OutputFormat::Human {
            println!("faults:   seed {}", args.common.faults_seed.expect("set"));
            for line in h.plan.to_text().lines().skip(2) {
                println!("          {line}");
            }
        }
        spec = spec.with_harness(h);
    }
    let source = TraceSource::Atrc(&atrc);
    let run = simulate_source(&source, &dp, &soc_cfg, &spec).unwrap_or_else(|e| {
        eprintln!("{}", e.to_report().to_human());
        std::process::exit(1);
    });
    let r = &run.result;
    let peak = run.peak_resident_nodes.unwrap_or(0);
    match args.common.format {
        OutputFormat::Json => {
            println!(
                "{{\"kernel\":\"{}\",\"source\":\"{}\",\"mem\":\"{}\",\"lanes\":{},\"partition\":{},\"cycles\":{},\"time_s\":{},\"power_mw\":{},\"energy_j\":{},\"edp\":{},\"peak_resident_nodes\":{}}}",
                source.name(),
                source.kind(),
                r.mem_kind,
                r.datapath.lanes,
                r.datapath.partition,
                r.total_cycles,
                r.seconds(),
                r.power_mw(),
                r.energy_j(),
                r.edp(),
                peak
            );
        }
        OutputFormat::Human => {
            println!("kernel:   {} (streamed from {path})", source.name());
            println!(
                "trace:    {} node(s), {} array(s), fingerprint {:032x}",
                source.node_count(),
                source.arrays().len(),
                source.fingerprint()
            );
            println!("memsys:   {}", r.mem_kind);
            println!(
                "datapath: {} lanes, {} banks, {} B local SRAM",
                r.datapath.lanes, r.datapath.partition, r.local_sram_bytes
            );
            println!();
            println!("cycles:   {}", r.total_cycles);
            println!("time:     {:.2} us", r.seconds() * 1e6);
            println!("power:    {:.2} mW", r.power_mw());
            println!("energy:   {:.3} uJ", r.energy_j() * 1e6);
            println!("EDP:      {:.3e} J*s", r.edp());
            println!("phases:   {}", r.phases);
            println!("resident: peak {peak} node(s) in the scheduling window");
        }
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    args.common.apply_cache_mode();
    if let Some(path) = &args.trace {
        run_trace(&args, path);
    }
    let Some(kernel) = aladdin_workloads::by_name(&args.kernel) else {
        eprintln!("unknown kernel {:?}; use --list", args.kernel);
        std::process::exit(1);
    };
    let run = kernel.run();
    let (soc_cfg, dp) = build_configs(&args);

    if !args.common.multi.is_empty() {
        run_multi(&args, &soc_cfg, dp);
    }

    let kind = parse_mem_kind(&args.mem, args.opt).unwrap_or_else(|e| {
        eprintln!("simulate: {e}");
        usage();
    });
    // Fault-injected and windowed runs go through the fallible flows and
    // bypass the result cache: perturbed or window-bounded results must
    // never be cached. Every path reports a failed simulation as its typed
    // diagnostic and exits 1, never with a panic.
    let harness = args.common.harness();
    let outcome = if harness.is_some() || args.window.is_some() {
        let mut spec = FlowSpec::new(kind);
        if let Some(harness) = &harness {
            if args.common.format == OutputFormat::Human {
                println!("faults:   seed {}", args.common.faults_seed.expect("set"));
                // Skip the format header and the seed line — both shown above.
                for line in harness.plan.to_text().lines().skip(2) {
                    println!("          {line}");
                }
            }
            spec = spec.with_harness(harness);
        }
        if let Some(w) = args.window {
            spec = spec.with_window(w);
        }
        simulate_source(&TraceSource::Memory(&run.trace), &dp, &soc_cfg, &spec)
            .map(|s| (s.result, s.peak_resident_nodes))
    } else {
        let point = [PointSpec {
            kind,
            dp,
            soc: soc_cfg,
        }];
        let (mut results, _) = sweep_points(&run.trace, &point, &SimHarness::default());
        results
            .pop()
            .expect("one result per point")
            .map(|r| (r, None))
    };
    let (r, peak_resident) = outcome.unwrap_or_else(|e| {
        eprintln!("{}", e.to_report().to_human());
        std::process::exit(1);
    });

    if args.common.format == OutputFormat::Json {
        let peak = peak_resident
            .map(|p| format!(",\"peak_resident_nodes\":{p}"))
            .unwrap_or_default();
        println!(
            "{{\"kernel\":\"{}\",\"mem\":\"{}\",\"lanes\":{},\"partition\":{},\"cycles\":{},\"time_s\":{},\"power_mw\":{},\"energy_j\":{},\"edp\":{}{}}}",
            kernel.name(),
            r.mem_kind,
            r.datapath.lanes,
            r.datapath.partition,
            r.total_cycles,
            r.seconds(),
            r.power_mw(),
            r.energy_j(),
            r.edp(),
            peak
        );
        return;
    }

    println!("kernel:   {} ({})", kernel.name(), kernel.description());
    println!("trace:    {}", run.trace.stats());
    println!("memsys:   {}", r.mem_kind);
    println!(
        "datapath: {} lanes, {} banks, {} B local SRAM",
        r.datapath.lanes, r.datapath.partition, r.local_sram_bytes
    );
    println!();
    println!("cycles:   {}", r.total_cycles);
    println!("time:     {:.2} us", r.seconds() * 1e6);
    println!("power:    {:.2} mW", r.power_mw());
    println!("energy:   {:.3} uJ", r.energy_j() * 1e6);
    println!("EDP:      {:.3e} J*s", r.edp());
    println!("phases:   {}", r.phases);
    if let Some(c) = r.cache_stats {
        println!(
            "cache:    {} accesses, {:.1}% miss, {} writebacks, {} prefetches ({} useful)",
            c.accesses(),
            c.miss_ratio() * 100.0,
            c.writebacks,
            c.prefetches,
            c.useful_prefetches
        );
    }
    if let Some(t) = r.tlb_stats {
        println!("tlb:      {} hits, {} misses", t.hits, t.misses);
    }
    if let Some(d) = r.dma_stats {
        println!(
            "dma:      {} descriptors, {} bursts, {} bytes",
            d.descriptors, d.bursts, d.bytes
        );
    }
    if let Some(s) = r.spad_stats {
        println!(
            "spad:     {} reads, {} writes, {} bank conflicts, {} ready-stalls",
            s.reads, s.writes, s.bank_conflicts, s.ready_stalls
        );
    }
    if let Some(p) = peak_resident {
        println!("resident: peak {p} node(s) in the scheduling window");
    }
    println!();
    println!("{}", aladdin_dse::global_perf());
}
