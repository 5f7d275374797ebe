//! The scheduler's ordering contract read literally, shared by the tests
//! that drive a [`Scheduler`](tpp_netsim::engine::Scheduler) beside it
//! (`scheduler_model.rs`, `scheduler_mutations.rs`). Cargo builds no test
//! target from a file below `tests/support/`.

/// `(time, key, insertion index, id)`: field order is pop order.
#[derive(Default)]
pub struct Model {
    pub pending: Vec<(u64, u64, u64, u64)>,
    inserted: u64,
    pub now: u64,
}

impl Model {
    pub fn schedule_keyed(&mut self, at: u64, key: u64, id: u64) {
        self.pending.push((at.max(self.now), key, self.inserted, id));
        self.inserted += 1;
    }

    pub fn pop(&mut self) -> Option<(u64, u64)> {
        let first = (0..self.pending.len()).min_by_key(|&i| self.pending[i])?;
        let (time, _, _, id) = self.pending.swap_remove(first);
        self.now = time;
        Some((time, id))
    }

    pub fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|e| e.0).min()
    }

    pub fn take_due(&mut self, until: u64) -> Option<(u64, u64)> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }
}
