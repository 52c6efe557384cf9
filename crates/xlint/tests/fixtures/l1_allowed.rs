//! L1 negative fixture: recovery instead of poison unwrap, a justified
//! cross-crate call under a lock, and a guard chained away into a temporary.
use std::sync::{Mutex, PoisonError};

use xfraud_gnn::predict_scores;

pub struct Engine {
    state: Mutex<Vec<u32>>,
}

impl Engine {
    pub fn recovered(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    pub fn justified(&self) -> usize {
        let g = self.state.lock();
        // xlint: allow(l1, reason = "predict_scores is lock-free and O(1) here")
        let n = predict_scores();
        g.len() + n
    }

    pub fn chained_guard_is_a_temporary(&self) -> usize {
        // The guard dies with its statement: `n` is a `usize`.
        let n = self.state.lock().len();
        n + predict_scores()
    }
}
