//! Seed-swept mutation test of the two decoders documented to read
//! documents from another process: [`InferenceRequest`] (the request a
//! client sends) and [`SessionCheckpoint`] (a parked session migrating
//! between hosts).
//!
//! Each seed draws one mutation of a valid encoding through
//! [`Rng`]: a truncation, bit flips, a splice of another valid
//! document, a duplicated key, a 200-deep `[` nesting in place of a
//! value, or an edge number (`1e400`, `1e-400`, `-0`,
//! `18446744073709551616`, `-1`, `3.5`) in place of a number. Every
//! decode must return rather than panic, and every document a decoder
//! accepts must re-encode to text that decodes and re-encodes to the
//! identical text, so a decoder that accepts a value its own writer
//! cannot reproduce fails here. A failure names the seed and prints the
//! document.

use edgebert::calibrate::SweepCache;
use edgebert::engine::{EngineBuilder, EntropyThresholds, InferenceMode, InferenceRequest};
use edgebert::predictor::EntropyPredictor;
use edgebert::{DropTarget, SessionCheckpoint};
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Mutations drawn per decoder.
const MUTATIONS: u64 = 10_000;

const EDGE_NUMBERS: [&str; 6] = ["1e400", "1e-400", "-0", "18446744073709551616", "-1", "3.5"];

/// Values a duplicated key may carry instead of its own.
const ODD_VALUES: [&str; 8] = [
    "null",
    "true",
    "\"LatencyAware\"",
    "[]",
    "{}",
    "0",
    "{\"$f64\":\"NaN\"}",
    "[1,2]",
];

const KINDS: [&str; 6] = [
    "truncation",
    "bit flip",
    "splice",
    "duplicated key",
    "deep nesting",
    "edge number",
];

/// Valid request documents: every optional field set and unset, the
/// legacy form without the serving stamps, and a non-finite target.
fn request_documents() -> Vec<String> {
    let full = InferenceRequest::new(vec![2, 17, 40, 3])
        .with_mode(InferenceMode::ConventionalEe)
        .with_latency_target(35e-3)
        .with_drop_target(DropTarget::TwoPercent)
        .with_elapsed_queue_s(1.25e-3)
        .with_max_degradation(2)
        .with_envelope_w(0.05);
    let nan_target = InferenceRequest::new(vec![5, 6]).with_latency_target(f64::NAN);
    vec![
        serde::json::to_string(&InferenceRequest::new(vec![1, 2, 3])),
        serde::json::to_string(&full),
        serde::json::to_string(&InferenceRequest::new(Vec::new()).with_mode(InferenceMode::Base)),
        serde::json::to_string(&nan_target),
        r#"{"tokens":[9,8,7],"mode":"LatencyAware","latency_target_s":0.02,"drop_target":"FivePercent"}"#
            .to_string(),
    ]
}

/// Valid checkpoint documents: sessions of every mode parked at
/// different layers of a tiny model, one degraded and enveloped.
fn checkpoint_documents() -> Vec<String> {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
    let model = AlbertModel::pretrained(cfg, &layout, &mut Rng::seed_from(41));
    let data = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len).generate(8, 9);
    let cache = SweepCache::build(&model, &data);
    let lut = EntropyPredictor::train(&cache.entropy_dataset(), 20, 3).to_lut(32, 1.1);
    // `et = 0` never exits early, so every layer boundary parks.
    let engine = EngineBuilder::new(Arc::new(model), Arc::new(lut))
        .uniform_thresholds(EntropyThresholds::uniform(0.0))
        .build();
    let tokens = |i: usize| data.examples()[i].tokens.iter().take(6).copied().collect();
    let cases = [
        (InferenceMode::LatencyAware, 1, 0, None),
        (InferenceMode::LatencyAware, 2, 1, Some(0.02)),
        (InferenceMode::ConventionalEe, 1, 2, None),
        (InferenceMode::Base, 3, 3, None),
    ];
    cases
        .into_iter()
        .map(|(mode, steps, i, envelope)| {
            let mut request = InferenceRequest::new(tokens(i))
                .with_mode(mode)
                .with_max_degradation(1);
            if let Some(w) = envelope {
                request = request.with_envelope_w(w);
            }
            let mut session = engine.begin_degraded(&request, u8::from(envelope.is_some()));
            for _ in 0..steps {
                session.step();
            }
            assert!(session.park(), "the fixture parks mid-sentence");
            serde::json::to_string(&session.checkpoint().expect("a parked session checkpoints"))
        })
        .collect()
}

/// Where a value starting at `start` ends (exclusive), in a document
/// whose strings hold no brackets.
fn value_end(doc: &[u8], start: usize) -> usize {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut i = start;
    while i < doc.len() {
        match (in_string, doc[i]) {
            (true, b'\\') => i += 1,
            (true, b'"') => {
                in_string = false;
                if depth == 0 {
                    return i + 1;
                }
            }
            (true, _) => {}
            (false, b'"') => in_string = true,
            (false, b'[' | b'{') => depth += 1,
            (false, b']' | b'}') if depth == 0 => return i,
            (false, b']' | b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            (false, b',') if depth == 0 => return i,
            (false, _) => {}
        }
        i += 1;
    }
    doc.len()
}

/// Every `"key":value` pair of `doc`: the key's opening quote, where
/// its value starts and where it ends.
fn pairs(doc: &str) -> Vec<(usize, usize, usize)> {
    let b = doc.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' {
            let close = i + 1 + b[i + 1..].iter().position(|&c| c == b'"').unwrap_or(0);
            if b.get(close + 1) == Some(&b':') {
                let start = close + 2;
                out.push((i, start, value_end(b, start)));
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// A byte range of a document.
type Span = (usize, usize);

/// Every number token of `doc`: those that are a field's whole value,
/// then those that are array elements.
fn numbers(doc: &str) -> (Vec<Span>, Vec<Span>) {
    let b = doc.as_bytes();
    let (mut fields, mut elements) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        let starts = (b[i].is_ascii_digit() || b[i] == b'-')
            && i > 0
            && matches!(b[i - 1], b':' | b',' | b'[');
        if starts {
            let end = i + b[i..]
                .iter()
                .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                .unwrap_or(b.len() - i);
            if b[i - 1] == b':' {
                fields.push((i, end));
            } else {
                elements.push((i, end));
            }
            i = end;
        } else {
            i += 1;
        }
    }
    (fields, elements)
}

fn splice(doc: &str, at: Span, with: &str) -> String {
    format!("{}{with}{}", &doc[..at.0], &doc[at.1..])
}

/// One mutation of `doc` of kind `kind` (an index into [`KINDS`]);
/// `other` is another valid document to splice in.
fn mutate(doc: &str, other: &str, kind: usize, rng: &mut Rng) -> String {
    let pick = |rng: &mut Rng, n: usize| rng.below(n.max(1));
    match kind {
        0 => doc[..pick(rng, doc.len())].to_string(),
        1 => {
            // Flip one of the low seven bits, so the text stays ASCII.
            let mut bytes = doc.as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = pick(rng, bytes.len());
                bytes[i] ^= 1 << rng.below(7);
            }
            String::from_utf8(bytes).expect("ASCII stays ASCII")
        }
        2 => format!(
            "{}{}",
            &doc[..pick(rng, doc.len())],
            &other[pick(rng, other.len())..]
        ),
        3 => {
            let pairs = pairs(doc);
            let (key, start, end) = pairs[pick(rng, pairs.len())];
            let value = if rng.chance(0.5) {
                &doc[start..end]
            } else {
                ODD_VALUES[rng.below(ODD_VALUES.len())]
            };
            let pair = format!("{}{value}", &doc[key..start]);
            if rng.chance(0.5) {
                format!("{}{pair},{}", &doc[..key], &doc[key..])
            } else {
                format!("{},{pair}{}", &doc[..end], &doc[end..])
            }
        }
        4 => {
            let pairs = pairs(doc);
            let (_, start, end) = pairs[pick(rng, pairs.len())];
            splice(doc, (start, end), &("[".repeat(200) + &"]".repeat(200)))
        }
        _ => {
            let (fields, elements) = numbers(doc);
            let pool = if rng.chance(0.75) || elements.is_empty() {
                fields
            } else {
                elements
            };
            let at = pool[pick(rng, pool.len())];
            splice(doc, at, EDGE_NUMBERS[rng.below(EDGE_NUMBERS.len())])
        }
    }
}

/// Decodes `doc` as `T` without panicking; when it is accepted, checks
/// that its encoding decodes and re-encodes to the identical text.
/// `Ok(true)` is accepted, `Ok(false)` refused.
fn check<T: Serialize + Deserialize>(doc: &str) -> Result<bool, String> {
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<bool, String> {
        let Ok(value) = serde::json::from_str::<T>(doc) else {
            return Ok(false);
        };
        let first = serde::json::to_string(&value);
        let again = serde::json::from_str::<T>(&first)
            .map_err(|e| format!("its encoding {first} does not decode: {e}"))?;
        let second = serde::json::to_string(&again);
        if first != second {
            return Err(format!(
                "it re-encodes unstably:\n  first:  {first}\n  second: {second}"
            ));
        }
        Ok(true)
    }));
    run.unwrap_or_else(|_| Err("decoding panicked".to_string()))
}

/// Runs [`MUTATIONS`] seeds of mutations of `docs` through `T`'s
/// decoder, and prints how many of each kind it accepted and refused.
fn sweep<T: Serialize + Deserialize>(name: &str, docs: &[String], others: &[String]) {
    for doc in docs {
        assert_eq!(check::<T>(doc), Ok(true), "{name}: a valid document {doc}");
    }
    let mut tally = [(0u32, 0u32); KINDS.len()];
    for seed in 0..MUTATIONS {
        let mut rng = Rng::seed_from(seed);
        let doc = &docs[rng.below(docs.len())];
        let pool = if rng.chance(0.5) { docs } else { others };
        let other = &pool[rng.below(pool.len())];
        let kind = rng.below(KINDS.len());
        let mutated = mutate(doc, other, kind, &mut rng);
        match check::<T>(&mutated) {
            Ok(true) => tally[kind].0 += 1,
            Ok(false) => tally[kind].1 += 1,
            Err(why) => panic!(
                "{name} seed {seed} ({}): {why}\n  document: {mutated}",
                KINDS[kind]
            ),
        }
    }
    for (kind, (accepted, refused)) in KINDS.iter().zip(tally) {
        println!("{name} {kind}: {accepted} accepted, {refused} refused");
        assert!(refused > 0, "{name}: no {kind} was refused");
    }
    let accepted: u32 = tally.iter().map(|t| t.0).sum();
    assert!(accepted > 0, "{name}: every mutation was refused");
}

#[test]
fn mutated_requests_decode_without_panicking_and_round_trip() {
    let requests = request_documents();
    let checkpoints = checkpoint_documents();
    sweep::<InferenceRequest>("InferenceRequest", &requests, &checkpoints);
}

#[test]
fn mutated_checkpoints_decode_without_panicking_and_round_trip() {
    let requests = request_documents();
    let checkpoints = checkpoint_documents();
    sweep::<SessionCheckpoint>("SessionCheckpoint", &checkpoints, &requests);
}
