//! L1 positive fixture: poison unwrap + guard held across a workspace call.
use std::sync::{LazyLock, Mutex, PoisonError};

use xfraud_gnn::predict_scores;

pub struct Engine {
    state: Mutex<Vec<u32>>,
}

impl Engine {
    pub fn poison_propagation(&self) -> usize {
        self.state.lock().unwrap().len()
    }

    pub fn guard_across_crate_call(&self) -> usize {
        let g = self.state.lock();
        let n = predict_scores();
        g.len() + n
    }

    pub fn dropped_before_call(&self) -> usize {
        let g = self.state.lock();
        let n = g.len();
        drop(g);
        n + predict_scores()
    }

    pub fn recovered_guard_across_crate_call(&self) -> usize {
        // Poison recovery passes the guard through: `g` is still a guard.
        let g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        g.len() + predict_scores()
    }
}

static SHARED: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static FIRST: LazyLock<usize> = LazyLock::new(|| SHARED.lock().unwrap().len());
