//! `sim_profile`: a sampling profile of one of the repo benchmark's
//! workloads, for containers with no `perf` and no PMU.
//!
//! ```text
//! sim_profile [target (default sim_dc)] [seconds (default 10)] > samples.txt
//! ```
//!
//! The target is a workload of `tpp_benchmark::WORKLOADS`, set up as the
//! benchmark sets it up at seed 1 (output check included); its `slice` then
//! runs back to back for the given seconds of host time. A `SIGPROF` timer
//! fires every millisecond of process CPU time meanwhile, and the handler
//! records the interrupted instruction pointer: not a stack, since under LTO
//! the inline chain `addr2line -i` recovers is the part of the stack that
//! matters. The samples are written one per line as hexadecimal offsets from
//! the executable's load address, which `addr2line -e <this binary>` reads;
//! `scripts/profile.sh` folds them into shares per function. Linux on
//! `x86_64` only (the `ucontext` layout is read by hand); elsewhere the
//! binary prints `unsupported` and exits 0.

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
    use std::time::Instant;

    use tpp_benchmark::WORKLOADS;

    /// The seed the benchmark's committed numbers were taken at.
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

    fn fail(message: String) -> ! {
        eprintln!("sim_profile: {message}");
        std::process::exit(2);
    }

    pub fn main() {
        let mut args = std::env::args().skip(1);
        let name = args.next().unwrap_or_else(|| "sim_dc".into());
        let seconds: f64 = args
            .next()
            .map_or(10.0, |a| a.parse().unwrap_or_else(|_| fail(format!("seconds: {a}"))));
        let spec = tpp_benchmark::spec(&name).unwrap_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            fail(format!("unknown target {name:?}: one of {}", names.join(", ")))
        });
        let mut workload = (spec.setup)(SEED).unwrap_or_else(|e| fail(format!("{name}: {e}")));

        install_handler();
        let (mut slices, mut ops, mut failed) = (0u64, 0u64, 0u64);
        let started = Instant::now();
        set_timer(PERIOD_US);
        while slices == 0 || started.elapsed().as_secs_f64() < seconds {
            let s = workload.slice().unwrap_or_else(|e| fail(format!("{name}: {e}")));
            (slices, ops, failed) = (slices + 1, ops + s.ops, failed + s.failed);
        }
        set_timer(0);
        eprintln!(
            "# sim_profile: {name} at seed {SEED}, {slices} slices, {ops} ops ({}), {failed} failed, \
             output digest {:#018x}",
            spec.op,
            workload.output_digest()
        );

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
