//! `sim_profile`: a sampling profile of the simulated frame-hop, for
//! containers with no `perf` and no PMU.
//!
//! Runs the `sim_dc` cell of the repo benchmark (`FatTree { k: 4 }` under
//! `TrafficConfig::default()`, seed 1, 8 ms of simulated time, one shard)
//! `runs` times through the public API. While `Network::run_until` is on the
//! CPU a `SIGPROF` interval timer fires every millisecond of process CPU time
//! and the handler records the interrupted instruction pointer. The samples are
//! written one per line, as hexadecimal offsets from the executable's load
//! address, which is what `addr2line -e <this binary>` expects of a
//! position-independent executable. `scripts/profile.sh` builds this with
//! line tables, runs it, and folds the resolved inline chains into inclusive
//! and self shares per function.
//!
//! ```text
//! sim_profile [runs (default 100)] > samples.txt
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

    use tpp_fabric::{install_traffic, TrafficConfig};
    use tpp_netsim::{Time, TopologySpec, MILLIS};

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

    pub fn main() {
        let runs: u64 = std::env::args()
            .nth(1)
            .map_or(100, |a| a.parse().unwrap_or_else(|_| panic!("runs: {a}")));

        install_handler();
        let (mut hops, mut events, mut digest) = (0, 0, 0);
        for _ in 0..runs {
            let mut t = TopologySpec::FatTree { k: 4 }.builder().seed(SEED).build();
            let traffic =
                TrafficConfig { seed: SEED, stop_at: HORIZON, ..TrafficConfig::default() };
            install_traffic(&mut t.net, &t.hosts, &traffic);
            set_timer(PERIOD_US);
            t.net.run_until(HORIZON);
            set_timer(0);
            hops += t.net.stats.frames_delivered;
            events += t.net.stats.events_processed;
            digest = t.net.stats.digest();
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
            "# sim_profile: {runs} runs of fat_tree4 x uniform at seed {SEED}, digest {digest:#018x}, \
             {hops} frame-hops, {events} events"
        );
        eprintln!(
            "# {taken} samples every {PERIOD_US} us of CPU time, {outside} outside the executable, \
             {} dropped",
            taken.saturating_sub(MAX_SAMPLES)
        );
    }
}
