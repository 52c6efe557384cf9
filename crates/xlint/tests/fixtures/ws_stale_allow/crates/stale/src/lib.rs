// P1 is enforced by clippy now; xlint has no rule to read this directive.

pub fn first(xs: &[u32]) -> u32 {
    // xlint: allow(p1, reason = "callers pass a non-empty slice")
    xs[0]
}
