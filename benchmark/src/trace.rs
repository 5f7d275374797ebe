//! The traced pass's recorder: spans around calls into each layer, counts at
//! the same boundaries, and a counting global allocator.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! public functions of `crates/*`; spans *inside* the program are a later
//! change (ROADMAP 5). Everything is kept in memory and written to
//! `benchmark/out/trace.jsonl` when the run ends. The timed pass never
//! constructs a [`Tracer`] and leaves allocation counting off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Calls covered by one span of a per-call layer metric: one clock pair per
/// 4096 calls keeps the clock out of the number.
pub const CHUNK: usize = 4096;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
}

/// In-memory span and count recorder for one workload's traced pass.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: Vec<(&'static str, f64)>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent });
        // Read the clock last so bookkeeping stays outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        Open(id)
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = self.now_ns();
        let popped = self.open.pop();
        assert_eq!(popped, Some(open.0), "spans must close innermost first");
        let s = &mut self.spans[open.0 as usize];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Record a count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Append this workload's spans and counts as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"span\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.workload, s.name, i, parent, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"count\":\"{}\",\"value\":{}}}",
                self.workload, name, value
            )?;
        }
        Ok(())
    }
}

/// What the allocator saw between [`alloc_start`] and [`alloc_stop`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    pub allocs: u64,
    pub bytes: u64,
    /// High-water mark of bytes allocated since the start marker and not yet
    /// freed.
    pub live_peak: u64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus counters that are only touched while a traced
/// pass has switched counting on; otherwise each call costs one relaxed load.
pub struct CountingAlloc;

// The counters are statistics: they publish no other data, so `Relaxed` is
// enough, and the shard threads of `sim_wan_x2` may update them concurrently.
fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // Blocks allocated before the start marker may be freed after it;
        // clamp so the live count never wraps.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(size as u64))
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters are
// atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero the counters and start counting.
pub fn alloc_start() {
    for c in [&ALLOCS, &BYTES, &LIVE, &PEAK] {
        c.store(0, Ordering::Relaxed);
    }
    COUNTING.store(true, Ordering::SeqCst);
}

/// Stop counting and return what was seen since [`alloc_start`].
pub fn alloc_stop() -> AllocStats {
    COUNTING.store(false, Ordering::SeqCst);
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live_peak: PEAK.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests allocate on their own threads while this one counts, so
    /// only lower bounds can be asserted.
    #[test]
    fn counting_allocator_sees_allocations_between_the_markers() {
        alloc_start();
        let block = std::hint::black_box(vec![7u8; 1 << 16]);
        let seen = alloc_stop();
        assert!(seen.allocs >= 1 && seen.bytes >= 1 << 16 && seen.live_peak >= 1 << 16, "{seen:?}");
        drop(block);
        let quiet = std::hint::black_box(vec![7u8; 1 << 16]);
        assert_eq!(alloc_stop().allocs, seen.allocs, "counting is off outside the markers");
        drop(quiet);
    }

    #[test]
    fn spans_nest_and_are_written_with_their_parent() {
        let mut tr = Tracer::new("t");
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = tr.exit(inner);
        let outer_ns = tr.exit(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        let mut out = Vec::new();
        tr.count("things", 3.0);
        tr.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"span\":\"inner\",\"id\":1,\"parent\":0"));
    }
}
