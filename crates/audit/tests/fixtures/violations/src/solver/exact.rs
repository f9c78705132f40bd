//! Seeded violations — fixtures_check.rs asserts these exact
//! rule/file/line findings; keep the line numbers stable.

pub fn solve(v: &[u32]) -> u32 {
    let first = v.first().copied().unwrap_or(0);
    first + v.len() as u32
}

// audit:allow(obs-coverage)
pub fn annotated_without_reason(v: &[u32]) -> u32 {
    v.iter().sum()
}

// audit:allow(no-such-rule) the rule name is wrong
fn helper() -> u32 {
    0
}

// CLAIM(T9.9) phantom: not in the fixture paper
fn cite() -> u32 {
    helper()
}
