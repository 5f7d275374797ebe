//! `sim_profile`: a sampling profile of the simulated frame-hop or of the
//! switch fast path, for containers with no `perf` and no PMU.
//!
//! Three targets, each built through the public API and shaped like the repo
//! benchmark's workload of the same name:
//!
//! * `sim_dc` (the default): the `FatTree { k: 4 }` cell under
//!   `TrafficConfig::default()`, seed 1, 8 ms of simulated time, one shard.
//!   One run is one replay of the cell.
//! * `switch_tpp_hot`: one 16-port `Switch` with 128 `/32` routes (half
//!   `Output`, half ECMP `Group`), driven `receive` -> `dequeue` one frame at
//!   a time over a ring of 2,048 minimum-size frames that carry the seven app
//!   probes compiled for five hops. One run is 256 passes over the ring.
//! * `switch_plain`: the same switch, routes and flows, no TPP.
//! * `app_rcp`: the timed replay of `benchmark/src/workloads/rcp.rs`, the
//!   Fig. 2 RCP* network (three senders and their sinks on a line of three
//!   switches, flows started at 45 Mb/s and staggered inside the first
//!   millisecond as the benchmark staggers them) simulated for 50 ms. A
//!   replay takes about 1 ms of CPU, no more than one timer period, so a
//!   timer armed around each replay might never fire: one run builds 64
//!   networks first and arms the timer once around all of their replays.
//!
//! While the target's loop is on the CPU a `SIGPROF` interval timer fires
//! every millisecond of process CPU time and the handler records the
//! interrupted instruction pointer. The samples are written one per line, as
//! hexadecimal offsets from the executable's load address, which is what
//! `addr2line -e <this binary>` expects of a position-independent executable.
//! `scripts/profile.sh` builds this with line tables, runs it, and folds the
//! resolved inline chains into inclusive and self shares per function.
//!
//! ```text
//! sim_profile [target (default sim_dc)] [runs (default 100)] > samples.txt
//! ```
//!
//! Only the instruction pointer is kept, not a stack: under LTO the hot loop
//! is a handful of functions inlined into each other, and the inline chain
//! `addr2line -i` recovers for an address is the part of the stack that
//! matters. Linux on `x86_64` only (the `ucontext` layout is read by hand);
//! elsewhere the binary prints `unsupported` and exits 0.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    println!("unsupported: sim_profile reads the x86_64 Linux ucontext");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    linux_x86_64::main();
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux_x86_64 {
    use std::ffi::c_void;
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    use tpp_apps::common::udp_frame;
    use tpp_apps::{conga, microburst, netsight, netverify, rcp, sketch};
    use tpp_core::wire::{insert_transparent, Ipv4Address};
    use tpp_fabric::{install_traffic, TrafficConfig};
    use tpp_netsim::{Network, Time, TopologySpec, MILLIS};
    use tpp_switch::{Action, ReceiveOutcome, Switch, SwitchConfig};

    /// Simulated horizon of the cell, as in `benchmark/src/workloads/sim.rs`.
    const HORIZON: Time = 8 * MILLIS;
    /// Topology and traffic seed: the one the committed tables were taken at.
    const SEED: u64 = 1;
    /// Sampling period in microseconds of process CPU time.
    const PERIOD_US: i64 = 1_000;
    /// Room for two minutes of samples; later ones are counted and dropped.
    const MAX_SAMPLES: usize = 1 << 17;

    // The C library's declarations, by hand: the workspace builds offline
    // and takes no `libc` dependency for one tool. Layouts are glibc's and
    // musl's for x86_64 Linux (they agree on every field read here).
    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 0x4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in `ucontext_t`:
    /// `uc_flags` (8) + `uc_link` (8) + `uc_stack` (24), then 16 registers
    /// of 8 bytes come before `REG_RIP` (index 16).
    const UCONTEXT_RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;

    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    /// `struct sigaction`: handler, 1024-bit mask, flags, restorer.
    #[repr(C)]
    struct Sigaction {
        sa_sigaction: extern "C" fn(i32, *mut c_void, *mut c_void),
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const Sigaction, oldact: *mut Sigaction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    static SAMPLES: [AtomicU64; MAX_SAMPLES] = [const { AtomicU64::new(0) }; MAX_SAMPLES];
    /// Samples taken, including those past `MAX_SAMPLES`.
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// The `SIGPROF` handler: store the interrupted RIP. Touches nothing but
    /// two lock-free atomics, so it is async-signal-safe.
    extern "C" fn on_sigprof(_signum: i32, _info: *mut c_void, ucontext: *mut c_void) {
        // SAFETY: installed with `SA_SIGINFO`, so the kernel passes a valid
        // `ucontext_t` for the interrupted thread as the third argument, and
        // on x86_64 Linux the saved RIP sits at this offset inside it (see
        // `UCONTEXT_RIP_OFFSET`), 8-byte aligned like the struct itself.
        let rip = unsafe { ucontext.cast::<u8>().add(UCONTEXT_RIP_OFFSET).cast::<u64>().read() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SAMPLES.get(i) {
            slot.store(rip, Ordering::Relaxed);
        }
    }

    fn install_handler() {
        let act = Sigaction {
            sa_sigaction: on_sigprof,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `act` is a fully initialised `struct sigaction` of the C
        // library's layout that outlives the call, the old action is not
        // asked for, and the handler is async-signal-safe (see above).
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF) failed");
    }

    /// Arm the profiling timer with `period_us`, or disarm it with 0.
    fn set_timer(period_us: i64) {
        let tick = || Timeval { tv_sec: 0, tv_usec: period_us };
        let timer = Itimerval { it_interval: tick(), it_value: tick() };
        // SAFETY: `timer` is a fully initialised `struct itimerval` that
        // outlives the call; the old value is not asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
    }

    /// Where this executable is mapped: lowest start and highest end of the
    /// mappings `/proc/self/maps` attributes to it.
    fn load_range() -> (u64, u64) {
        let exe = std::env::current_exe().expect("own path");
        let exe = exe.to_str().expect("utf-8 path");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        let (mut lo, mut hi) = (u64::MAX, 0);
        for line in maps.lines().filter(|l| l.ends_with(exe)) {
            let (start, end) = line
                .split_once(' ')
                .and_then(|(range, _)| range.split_once('-'))
                .expect("start-end in a maps line");
            lo = lo.min(u64::from_str_radix(start, 16).expect("hex start"));
            hi = hi.max(u64::from_str_radix(end, 16).expect("hex end"));
        }
        assert!(lo < hi, "no mapping of {exe} in /proc/self/maps");
        (lo, hi)
    }

    /// One replay of the `sim_dc` cell under the timer: frame-hops, events
    /// and the run's digest.
    fn sim_dc_run() -> (u64, u64, u64) {
        let mut t = TopologySpec::FatTree { k: 4 }.builder().seed(SEED).build();
        let traffic = TrafficConfig { seed: SEED, stop_at: HORIZON, ..TrafficConfig::default() };
        install_traffic(&mut t.net, &t.hosts, &traffic);
        set_timer(PERIOD_US);
        t.net.run_until(HORIZON);
        set_timer(0);
        (t.net.stats.frames_delivered, t.net.stats.events_processed, t.net.stats.digest())
    }

    // The shape of `benchmark/src/workloads/switch.rs`.
    const N_PORTS: u8 = 16;
    const N_ROUTES: u32 = 128;
    const N_FLOWS: u32 = 120;
    const RING: usize = 2048;
    const HOPS: usize = 5;
    /// Host ids of the routed destinations start here; sources start at 1.
    const DST_BASE: u32 = 1000;
    /// Position of `rcp::update_probe` among the seven programs.
    const UPDATE: usize = 2;
    /// Ring passes per run: about 0.1 s of CPU, like one `sim_dc` replay.
    const PASSES_PER_RUN: usize = 256;

    /// A 16-port switch with 128 host routes, even destinations on `Output`
    /// ports and odd ones on four 4-port ECMP groups, and the ring of
    /// `(in_port, frame)` it is driven with: 120 flows in a fixed shuffled
    /// order, each frame carrying one of the seven app programs when
    /// `with_tpp`.
    fn switch_ring(with_tpp: bool) -> (Switch, Vec<(u8, Vec<u8>)>) {
        let mut sw = Switch::new(SwitchConfig::new(1, N_PORTS.into()));
        for p in 0..N_PORTS {
            sw.set_link_speed(p, 10_000);
        }
        let groups: Vec<u16> =
            (0..4u8).map(|g| sw.add_group((4 * g..4 * g + 4).collect())).collect();
        for i in 0..N_ROUTES {
            let action = if i % 2 == 0 {
                Action::Output((i / 2 % u32::from(N_PORTS)) as u8)
            } else {
                Action::Group(groups[(i / 2 % 4) as usize])
            };
            sw.add_host_route(Ipv4Address::from_host_id(DST_BASE + i), action);
        }

        let update = rcp::update_probe();
        let programs: Vec<_> = [
            microburst::microburst_probe(),
            rcp::collect_probe(),
            rcp::update_probe(),
            conga::conga_probe(),
            netsight::history_probe(),
            sketch::sketch_probe(),
            netverify::trace_probe(),
        ]
        .iter()
        .map(|p| p.compile_hops(HOPS).expect("app probes compile"))
        .collect();

        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 33) % u64::from(n)) as u32
        };
        // Every update frame rides the flow to the first `Output` route, so
        // the link register its CSTORE guards sees versions 0, 1, .., n-1, 0
        // around the ring and the STORE behind it executes on every pass, as
        // in the running app.
        let n_updates = (0..RING).filter(|s| with_tpp && s % programs.len() == UPDATE).count();
        let mut updates_seen = 0u32;
        let ring = (0..RING)
            .map(|slot| {
                let is_update = with_tpp && slot % programs.len() == UPDATE;
                let flow = if is_update { 0 } else { below(N_FLOWS) };
                // Flow `f` goes to route `f`, so even flows take `Output` routes.
                let plain = udp_frame(
                    Ipv4Address::from_host_id(1 + flow),
                    Ipv4Address::from_host_id(DST_BASE + flow),
                    20_000 + (flow * 131 % 20_000) as u16,
                    5001,
                    18,
                );
                let in_port = (flow * 7 % u32::from(N_PORTS)) as u8;
                if !with_tpp {
                    return (in_port, plain);
                }
                let mut t = programs[slot % programs.len()].clone();
                if is_update {
                    let k = updates_seen;
                    updates_seen += 1;
                    update
                        .set_args(&mut t, 0, "version", &[k, (k + 1) % n_updates as u32])
                        .expect("hop 0 exists");
                    update.set_args(&mut t, 0, "rate", &[40_000 + k]).expect("hop 0 exists");
                }
                (in_port, insert_transparent(&plain, &t))
            })
            .collect();
        (sw, ring)
    }

    /// `runs` x 256 passes over the ring under the timer, one frame in flight
    /// and its buffer reused: frames forwarded, TPPs executed, and an FNV-1a
    /// of every byte the first pass put out.
    fn switch_runs(with_tpp: bool, runs: u64) -> (u64, u64, u64) {
        let (mut sw, ring) = switch_ring(with_tpp);
        let mut buf: Vec<u8> = Vec::with_capacity(512);
        let (mut now_ns, mut frames, mut digest) = (0u64, 0u64, 0u64);
        for run in 0..runs {
            set_timer(PERIOD_US);
            for pass in 0..PASSES_PER_RUN {
                let hash_this = run == 0 && pass == 0;
                if hash_this {
                    digest = 0xCBF2_9CE4_8422_2325;
                }
                for (in_port, bytes) in &ring {
                    now_ns += 1000;
                    buf.clear();
                    buf.extend_from_slice(bytes);
                    let ReceiveOutcome::Enqueued { port, .. } = sw.receive(now_ns, *in_port, buf)
                    else {
                        panic!("every ring frame is routed");
                    };
                    buf = sw.dequeue(now_ns, port).expect("the frame just queued");
                    frames += 1;
                    if hash_this {
                        for &b in &buf {
                            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                        }
                    }
                }
                sw.tick(now_ns);
            }
            set_timer(0);
        }
        (frames, sw.mem.tpp_executed, digest)
    }

    // The shape of `benchmark/src/workloads/rcp.rs`.
    const RCP_HORIZON: Time = 50 * MILLIS;
    /// Replays per run: about 70 ms of CPU, near one `sim_dc` replay.
    const REPLAYS_PER_RUN: usize = 64;

    /// The Fig. 2 network of the benchmark's timed replay, wired and not yet
    /// started. The flow starts are the benchmark's: its `Rng::new(SEED, 6)`
    /// (`SplitMix64`) drawn once per flow, below one millisecond.
    fn rcp_network() -> Network {
        let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
            .builder()
            .link_mbps(100)
            .delay_ns(10_000)
            .seed(SEED)
            .build();
        let ips: Vec<Ipv4Address> = topo.hosts.iter().map(|&h| topo.net.host(h).ip).collect();
        let cfg = rcp::RcpConfig { start_rate_bps: 45e6, ..rcp::RcpConfig::default() };
        let mut state = SEED ^ 6u64.wrapping_mul(0xA076_1D64_78BD_642F);
        for (src, dst, sport) in [(0, 4, 7001), (1, 2, 7002), (3, 5, 7003)] {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let start_at = MILLIS + (z ^ (z >> 31)) % MILLIS;
            let sender = rcp::RcpSender::new(cfg, ips[dst], sport, start_at);
            topo.net.set_app(topo.hosts[src], Box::new(sender));
            topo.net.set_app(topo.hosts[dst], Box::new(rcp::RcpSink::new(100 * MILLIS)));
        }
        topo.net
    }

    /// `runs` batches of [`REPLAYS_PER_RUN`] replays, each batch under the
    /// timer as a whole: frame-hops, events and the replays' digest.
    fn rcp_runs(runs: u64) -> (u64, u64, u64) {
        let (mut hops, mut events, mut digest) = (0, 0, None);
        for _ in 0..runs {
            let mut batch: Vec<Network> = (0..REPLAYS_PER_RUN).map(|_| rcp_network()).collect();
            set_timer(PERIOD_US);
            for net in &mut batch {
                net.run_until(RCP_HORIZON);
            }
            set_timer(0);
            for net in &batch {
                let d = *digest.get_or_insert(net.stats.digest());
                assert_eq!(net.stats.digest(), d, "every replay ends on the same digest");
                (hops, events) =
                    (hops + net.stats.frames_delivered, events + net.stats.events_processed);
            }
        }
        (hops, events, digest.unwrap_or(0))
    }

    pub fn main() {
        let mut args = std::env::args().skip(1);
        let target = args.next().unwrap_or_else(|| "sim_dc".into());
        let runs: u64 =
            args.next().map_or(100, |a| a.parse().unwrap_or_else(|_| panic!("runs: {a}")));

        install_handler();
        match target.as_str() {
            "sim_dc" => {
                let (mut hops, mut events, mut digest) = (0, 0, 0);
                for _ in 0..runs {
                    let (h, e, d) = sim_dc_run();
                    (hops, events, digest) = (hops + h, events + e, d);
                }
                eprintln!(
                    "# sim_profile: {runs} runs of fat_tree4 x uniform at seed {SEED}, \
                     digest {digest:#018x}, {hops} frame-hops, {events} events"
                );
            }
            "switch_tpp_hot" | "switch_plain" => {
                let (frames, executed, digest) = switch_runs(target == "switch_tpp_hot", runs);
                eprintln!(
                    "# sim_profile: {target}, {runs} runs of {PASSES_PER_RUN} passes over {RING} \
                     frames, first-pass digest {digest:#018x}, {frames} frames forwarded, \
                     {executed} TPPs executed"
                );
            }
            "app_rcp" => {
                let (hops, events, digest) = rcp_runs(runs);
                eprintln!(
                    "# sim_profile: {runs} runs of {REPLAYS_PER_RUN} Fig. 2 RCP* replays of 50 ms \
                     at seed {SEED}, digest {digest:#018x}, {hops} frame-hops, {events} events"
                );
            }
            other => {
                panic!("target: {other} (one of sim_dc, switch_tpp_hot, switch_plain, app_rcp)")
            }
        }

        let taken = TAKEN.load(Ordering::Relaxed);
        let (lo, hi) = load_range();
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        let mut outside = 0;
        for slot in &SAMPLES[..taken.min(MAX_SAMPLES)] {
            let rip = slot.load(Ordering::Relaxed);
            if (lo..hi).contains(&rip) {
                writeln!(out, "{:#x}", rip - lo).expect("write sample");
            } else {
                // The C library or the vDSO: no line tables of ours.
                outside += 1;
                writeln!(out, "0x0").expect("write sample");
            }
        }
        out.flush().expect("flush samples");
        eprintln!(
            "# {taken} samples every {PERIOD_US} us of CPU time, {outside} outside the executable, \
             {} dropped",
            taken.saturating_sub(MAX_SAMPLES)
        );
    }
}
