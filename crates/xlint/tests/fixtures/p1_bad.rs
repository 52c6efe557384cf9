//! P1 positive fixture: panicking escape hatches in library code.

pub fn risky(xs: &[u32]) -> u32 {
    let first = xs.first().unwrap();
    let second = xs.get(1).expect("has two");
    if *first > 10 {
        panic!("too big");
    }
    match second {
        0 => unreachable!("checked above"),
        _ => *second,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(risky(&[1, 2]), 2);
        let _ = "7".parse::<u32>().unwrap();
    }
}
