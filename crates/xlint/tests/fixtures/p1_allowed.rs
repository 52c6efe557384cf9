//! P1 negative fixture: a justified invariant.

pub fn modulo_get(xs: &[u32], i: usize) -> u32 {
    let at = i % xs.len();
    // xlint: allow(p1, reason = "index is reduced modulo len on the line above")
    *xs.get(at).expect("in bounds")
}

pub fn always_some(x: u32) -> u32 {
    // xlint: allow(p1, reason = "checked_add of values < 2^16 cannot overflow u32")
    x.checked_add(1).unwrap()
}
