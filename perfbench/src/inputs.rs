//! Workload inputs, generated from the seed through the repository's
//! own dataset generator. The program under test only ever sees the
//! resulting (question, answer, context) strings.

use crate::stats::range;
use gced_datasets::{generate, Dataset, DatasetKind, GeneratorConfig};

/// Seed of the fit dataset. The fitted pipeline plays the deployed
/// model, so it is the same for every `--seed`: only the traffic
/// varies between runs, and quality and cost do not move with a
/// refitted model.
const FIT_SEED: u64 = 42;

/// The fit dataset: the `smoke` training split plus 256 dev contexts
/// for the language model. Its size is fixed, so set-up time does not
/// depend on how many requests a run sends.
pub fn fit_dataset(kind: DatasetKind) -> Dataset {
    generate(
        kind,
        GeneratorConfig {
            train: 80,
            dev: 256,
            seed: FIT_SEED,
        },
    )
}

/// One distillation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub question: String,
    pub answer: String,
    pub context: String,
}

/// `n` generated examples of `kind`, drawn apart from the fit dataset,
/// as requests (unanswerable ones dropped).
pub fn requests(kind: DatasetKind, n: usize, seed: u64) -> Vec<Request> {
    let config = GeneratorConfig {
        train: 0,
        dev: n,
        seed: seed ^ 0x7265_7175_6573_7473,
    };
    generate(kind, config)
        .dev
        .examples
        .into_iter()
        .filter(|e| e.answerable)
        .map(|e| Request {
            question: e.question,
            answer: e.answer,
            context: e.context,
        })
        .collect()
}

/// Function words that start a sentence and can be lowercased when the
/// sentence is appended to a run-on one.
const LOWERABLE: &[&str] = &[
    "The", "A", "An", "It", "This", "He", "She", "They", "In", "On", "At", "Its", "His", "Her",
    "Their", "After", "Many", "Fans", "Ticket",
];

/// Whitespace words plus sentence punctuation: close to what the
/// tokenizer counts for the generator's prose.
fn rough_tokens(s: &str) -> usize {
    s.split_whitespace().count() + s.matches([',', '.', '(', ')']).count()
}

/// Split generated prose at `. ` / `! ` / `? ` boundaries.
fn sentences(context: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let bytes = context.as_bytes();
    for i in 0..bytes.len() {
        let end_mark = matches!(bytes[i], b'.' | b'!' | b'?');
        let next_is_break = i + 1 == bytes.len() || bytes[i + 1] == b' ';
        let next_upper = bytes.get(i + 2).is_some_and(u8::is_ascii_uppercase);
        if end_mark && next_is_break && (i + 1 == bytes.len() || next_upper) {
            out.push(context[start..=i].trim());
            start = i + 1;
        }
    }
    if !context[start..].trim().is_empty() {
        out.push(context[start..].trim());
    }
    out
}

/// Join consecutive sentences of `context` into run-on sentences of
/// about `lo..=hi` tokens each (the target of each run-on sentence is
/// drawn from `state`): inner full stops become ", and".
pub fn run_on(context: &str, lo: usize, hi: usize, state: &mut u64, lower: bool) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut target = range(state, lo, hi);
    for s in sentences(context) {
        if cur.is_empty() {
            cur.push_str(s);
        } else {
            if cur.ends_with(['.', '!', '?']) {
                cur.pop();
            }
            cur.push_str(", and ");
            let first = s.split(' ').next().unwrap_or("");
            if lower && LOWERABLE.contains(&first) {
                cur.push_str(&first.to_lowercase());
                cur.push_str(&s[first.len()..]);
            } else {
                cur.push_str(s);
            }
        }
        if rough_tokens(&cur) >= target {
            out.push(std::mem::take(&mut cur));
            target = range(state, lo, hi);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out.join(" ")
}

/// The `offline_long` inputs: TriviaQA-web dev examples whose contexts
/// are rewritten into run-on sentences of about 20 to 100 tokens. An
/// example whose answer would not survive the rewrite keeps its
/// capitalisation; one that still loses it is dropped.
pub fn long_requests(n: usize, seed: u64) -> Vec<Request> {
    requests(DatasetKind::TriviaWeb, n, seed)
        .into_iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let example_seed = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let joined = run_on(&r.context, 20, 100, &mut example_seed.clone(), true);
            let context = if joined.contains(&r.answer) {
                joined
            } else {
                run_on(&r.context, 20, 100, &mut example_seed.clone(), false)
            };
            context
                .contains(&r.answer)
                .then_some(Request { context, ..r })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_on_joins_sentences_up_to_the_target() {
        let ctx = "The cat sat. It was warm. The dog ran. Birds sang loudly.";
        let mut s = 1;
        let joined = run_on(ctx, 100, 100, &mut s, true);
        assert_eq!(
            joined,
            "The cat sat, and it was warm, and the dog ran, and Birds sang loudly."
        );
        let mut s = 1;
        let split = run_on(ctx, 1, 1, &mut s, true);
        assert_eq!(split, ctx);
    }

    #[test]
    fn long_inputs_are_a_function_of_the_seed() {
        let a = long_requests(24, 5);
        assert_eq!(a, long_requests(24, 5));
        assert!(a.len() >= 20, "{} of 24 kept", a.len());
        assert!(a.iter().all(|r| r.context.contains(&r.answer)));
    }
}
