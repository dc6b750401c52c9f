//! Output checks.  Every check is counted: `attempted` is the number made,
//! `failed` the number that did not hold, and the run is correct only when
//! none failed.

use crate::workload::{self, Workload, DEFAULT_SEED};

/// Digests of each workload's rendered output at the default seed, one
/// `<workload> <digest>` line each.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, held: bool) {
        self.attempted += 1;
        if !held {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    pub fn pass_fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// The pinned digest of a workload's output at the default seed.
pub fn reference_digest(workload: Workload) -> Option<&'static str> {
    REFERENCE.lines().find_map(|line| {
        let (name, digest) = line.split_once(' ')?;
        (name == workload.name()).then_some(digest.trim())
    })
}

/// Check a workload's rendered output: against the pinned digest at the
/// default seed, otherwise against a serial run of the same seed (outputs
/// are byte-identical at any thread count).  A perturbed copy of the
/// output must fail the same check, or the checker itself is broken.
pub fn output(workload: Workload, seed: u64, text: &str, checks: &mut Checks) {
    let expected = if seed == DEFAULT_SEED {
        match reference_digest(workload) {
            Some(digest) => Expected::Digest(digest.to_owned()),
            None => {
                checks.record("reference digest is recorded", false);
                return;
            }
        }
    } else {
        Expected::Text(workload::run(workload, seed, 1).text)
    };
    checks.record("output matches the expected output", expected.matches(text));
    checks.record(
        "a perturbed output is rejected",
        !expected.matches(&perturb(text)),
    );
}

enum Expected {
    Digest(String),
    Text(String),
}

impl Expected {
    fn matches(&self, text: &str) -> bool {
        match self {
            Expected::Digest(digest) => workload::digest(text) == *digest,
            Expected::Text(expected) => text == expected,
        }
    }
}

/// The output with its last decimal digit changed: the smallest edit a
/// wrong count would make.
pub fn perturb(text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match bytes.iter().rposition(u8::is_ascii_digit) {
        Some(i) => bytes[i] = if bytes[i] == b'9' { b'0' } else { bytes[i] + 1 },
        None => bytes.push(b'0'),
    }
    String::from_utf8(bytes).expect("a digit swap keeps the text UTF-8")
}
