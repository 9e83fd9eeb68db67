//! Seeded byte-mutation loops over the two ingest entry points,
//! `Catalog::import_delimited` and `Catalog::load_snapshot_bytes`: a valid
//! CSV text and a valid snapshot are flipped, grown and shrunk thousands of
//! times, and every mutant must give `Ok` or a typed `StorageError`, never a
//! panic. A failed load must leave the catalog as it was.
//!
//! The mutations are biased towards what steers the parsers: in CSV text
//! the quote, the delimiter, `\r` and `\n`; in a snapshot the length and
//! count fields (every 4-byte window holding a small number), written with
//! the section checksum re-stamped so the mutant reaches the decoders.

use csv_text::to_csv;
use tpdb::lineage::Lineage;
use tpdb::storage::snapshot::crc64;
use tpdb::storage::{Catalog, DataType, Schema, StorageError, TpTuple, Value};
use tpdb::temporal::Interval;

mod csv_text;

/// SplitMix64: a fixed seed gives the same mutants on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn schema() -> Schema {
    Schema::tp(&[
        ("name", DataType::Str),
        ("temp", DataType::Float),
        ("key", DataType::Int),
        ("ok", DataType::Bool),
    ])
}

/// Tuples whose rendering exercises every quoting rule.
fn tuples() -> Vec<TpTuple> {
    let names = [
        "plain",
        "with, comma",
        "say \"hi\"",
        "two\nlines",
        "crlf\r\nend",
        "",
        "é∆ wide",
        "\"\"",
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let name = if i == 5 {
                Value::Null
            } else {
                Value::str(name)
            };
            let facts = vec![
                name,
                Value::Float(i as f64 / 4.0),
                Value::Int(i as i64 - 3),
                Value::Bool(i % 2 == 0),
            ];
            let start = i as i64 * 3;
            TpTuple::new(
                facts,
                Lineage::tru(),
                Interval::new(start, start + 5),
                0.125 * (i as f64 + 1.0) / 2.0,
            )
        })
        .collect()
}

/// One CSV mutant: a few characters replaced, inserted or deleted, the new
/// ones drawn mostly from those that steer the parser, and one time in four
/// the text cut short.
fn mutate_text(text: &[char], rng: &mut Rng, delimiter: char) -> String {
    const STEERING: [char; 4] = ['"', '\r', '\n', '"'];
    let mut chars = text.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(chars.len() + 1);
        let new = match rng.below(8) {
            0..=3 => rng.pick(&STEERING),
            4 | 5 => delimiter,
            6 => rng.pick(&['x', '7', '-', '.', 'é', ' ']),
            _ => rng.pick(&['\t', ',', ';', '∆']),
        };
        match rng.below(3) {
            0 if at < chars.len() => chars[at] = new,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, new),
        }
    }
    if rng.below(4) == 0 {
        chars.truncate(rng.below(chars.len() + 1));
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_csv_text_imports_or_fails_typed() {
    let rendered = to_csv(&tuples());
    let mut rng = Rng(0x00C5_F11E);
    for delimiter in [',', '\t', '¦'] {
        let text: Vec<char> = if delimiter == ',' {
            rendered.chars().collect()
        } else {
            rendered
                .replace(',', &delimiter.to_string())
                .chars()
                .collect()
        };
        let mut catalog = Catalog::new();
        catalog
            .import_delimited(
                "valid",
                schema(),
                delimiter,
                &text.iter().collect::<String>(),
            )
            .unwrap();
        for round in 0..1500 {
            let mutant = mutate_text(&text, &mut rng, delimiter);
            let name = format!("m{round}");
            match catalog.import_delimited(&name, schema(), delimiter, &mutant) {
                Ok(relation) => assert!(relation.len() <= text.len(), "{mutant:?}"),
                Err(StorageError::ParseError { line, .. }) => {
                    let lines = mutant.matches('\n').count() + 1;
                    assert!((1..=lines).contains(&line), "line {line} of {mutant:?}");
                }
                Err(other) => panic!("{other:?} importing {mutant:?}"),
            }
        }
    }
}

/// The `[start, end)` byte ranges of each section payload of a snapshot.
fn payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut at = 16;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        out.push((at + 20, at + 20 + len));
        at += 20 + len;
    }
    out
}

/// One snapshot mutant. Most re-stamp the checksum of the section they
/// touch (and its length, when they insert or delete) so the decoders see
/// the fault; the rest leave the framing as it falls.
fn mutate_snapshot(valid: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let sections = payloads(valid);
    let (start, end) = sections[rng.below(sections.len())];
    // 4-byte windows holding a small number: counts, lengths, tags.
    let small: Vec<usize> = (start..end.saturating_sub(3))
        .filter(|&i| u32::from_le_bytes(valid[i..i + 4].try_into().unwrap()) < 64)
        .collect();
    let mut len = end - start;
    match rng.below(6) {
        0 | 1 if !small.is_empty() => {
            let at = rng.pick(&small);
            let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let new = rng.pick(&[
                0,
                1,
                old.wrapping_sub(1),
                old + 1,
                old * 2 + 7,
                u32::MAX,
                1 << 31,
            ]);
            bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
        }
        2 if len > 0 => bytes[start + rng.below(len)] ^= 1 << rng.below(8),
        3 => {
            let at = start + rng.below(len + 1);
            bytes.insert(at, rng.pick(&[0, 1, 2, 4, 0xFF]));
            len += 1;
        }
        4 if len > 0 => {
            bytes.remove(start + rng.below(len));
            len -= 1;
        }
        _ => {
            // A header or section-header byte: magic, version, count,
            // tag, length or checksum.
            let header = rng.pick(&[0, 8, 12, start - 20, start - 16, start - 8]);
            bytes[header + rng.below(4)] ^= 1 << rng.below(8);
            return bytes;
        }
    }
    if rng.below(8) != 0 {
        bytes[start - 16..start - 8].copy_from_slice(&(len as u64).to_le_bytes());
        let crc = crc64(&bytes[start..start + len]);
        bytes[start - 8..start].copy_from_slice(&crc.to_le_bytes());
    }
    bytes
}

#[test]
fn mutated_snapshots_load_or_fail_typed_and_leave_the_catalog() {
    // A stored relation of strings, and a join result whose lineages are
    // compound formulas.
    let mut source = Catalog::new();
    let text = to_csv(&tuples());
    source.import_delimited("r", schema(), ',', &text).unwrap();
    let k = Schema::tp(&[("k", DataType::Int)]);
    let s = source
        .import_delimited("s", k, ',', "1,0,5,0.5\n2,3,9,0.25\n1,6,8,0.75\n")
        .unwrap();
    let theta = tpdb::core::ThetaCondition::column_equals("k", "k");
    let joined = tpdb::core::tp_left_outer_join(&s, &s, &theta).unwrap();
    source.register(joined.renamed("j")).unwrap();
    let valid = source.to_snapshot_bytes().unwrap();

    let mut target = Catalog::new();
    target.load_snapshot_bytes(&valid).unwrap();
    let contents = target.to_snapshot_bytes().unwrap();
    let mut rng = Rng(0x5A4F_5407);
    let mut decoded = 0;
    for _ in 0..4000 {
        let mutant = mutate_snapshot(&valid, &mut rng);
        let epoch = target.schema_epoch();
        match target.load_snapshot_bytes(&mutant) {
            Ok(()) => {
                decoded += 1;
                target.load_snapshot_bytes(&valid).unwrap();
            }
            Err(StorageError::SnapshotIo { .. }) => panic!("no file was read"),
            Err(_) => {
                assert_eq!(
                    target.schema_epoch(),
                    epoch,
                    "a failed load bumped the epoch"
                );
                assert_eq!(target.to_snapshot_bytes().unwrap(), contents);
            }
        }
    }
    assert!(
        decoded > 0,
        "no mutant decoded: the mutations never get past the checks"
    );
}
