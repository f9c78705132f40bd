//! A fully-conforming solver module: instrumented, annotated where
//! exempt, and citing its headline claim from a test.

pub fn solve(v: &[u32]) -> u32 {
    let _s = jp_obs::span("solver", "solve");
    v.iter().copied().sum()
}

// audit:allow(obs-coverage) accessor — no solver work, nothing to trace
pub fn size(v: &[u32]) -> usize {
    v.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn solve_terminates() {
        // CLAIM(T1.1)
        assert_eq!(super::solve(&[1, 2]), 3);
    }
}
