//! Update commands and the coalescence algebra.
//!
//! Harmony stores *commands* (`add(x, 10)`) in write-sets instead of
//! evaluated values (`x = 20`). Deferring evaluation to the commit step is
//! what lets Rule 2 reorder conflicting updates instead of aborting them,
//! and what makes update coalescence possible: all commands touching one
//! record collapse into a single read-modify-write with one index lookup
//! and one page write (Figure 5 of the paper).

use std::fmt;

use bytes::Bytes;
use harmony_common::codec::{Reader, Writer};
use harmony_common::{Error, Result};

use crate::key::Value;

/// A single update command against one record.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateCommand {
    /// Blind overwrite of the whole value (also used for inserts).
    Put(Value),
    /// Remove the record.
    Delete,
    /// `v[offset..offset+8] += delta` over a little-endian `i64` field.
    AddI64 {
        /// Byte offset of the field.
        offset: usize,
        /// Signed delta.
        delta: i64,
    },
    /// `v[offset..offset+8] += delta` over a little-endian `f64` field.
    AddF64 {
        /// Byte offset of the field.
        offset: usize,
        /// Delta.
        delta: f64,
    },
    /// `v[offset..offset+8] *= factor` over a little-endian `f64` field.
    MulF64 {
        /// Byte offset of the field.
        offset: usize,
        /// Factor.
        factor: f64,
    },
    /// Overwrite a byte range of the value (record must exist and be long
    /// enough). A partial-field UPDATE.
    SetBytes {
        /// Byte offset the patch starts at.
        offset: usize,
        /// Replacement bytes.
        bytes: Bytes,
    },
}

impl UpdateCommand {
    /// Whether the command reads its target's current value
    /// (read-modify-write). RMW commands induce the wr-dependency the
    /// reordering proof of Theorem 1 tracks; `Put`/`Delete` are blind.
    #[must_use]
    pub fn is_rmw(&self) -> bool {
        !matches!(self, UpdateCommand::Put(_) | UpdateCommand::Delete)
    }

    /// Apply the command to the current value of the record.
    ///
    /// RMW commands on a missing record (or out-of-range field) are errors:
    /// the workloads always create records before mutating fields.
    pub fn apply(&self, current: Option<&Value>) -> Result<Option<Value>> {
        match self {
            UpdateCommand::Put(v) => Ok(Some(v.clone())),
            UpdateCommand::Delete => Ok(None),
            UpdateCommand::AddI64 { offset, delta } => {
                let mut v = require(current, "add_i64")?.to_vec();
                let field = field_mut(&mut v, *offset)?;
                let cur = i64::from_le_bytes(field.try_into().expect("8 bytes"));
                field.copy_from_slice(&cur.wrapping_add(*delta).to_le_bytes());
                Ok(Some(Bytes::from(v)))
            }
            UpdateCommand::AddF64 { offset, delta } => {
                let mut v = require(current, "add_f64")?.to_vec();
                let field = field_mut(&mut v, *offset)?;
                let cur = f64::from_le_bytes(field.try_into().expect("8 bytes"));
                field.copy_from_slice(&(cur + delta).to_le_bytes());
                Ok(Some(Bytes::from(v)))
            }
            UpdateCommand::MulF64 { offset, factor } => {
                let mut v = require(current, "mul_f64")?.to_vec();
                let field = field_mut(&mut v, *offset)?;
                let cur = f64::from_le_bytes(field.try_into().expect("8 bytes"));
                field.copy_from_slice(&(cur * factor).to_le_bytes());
                Ok(Some(Bytes::from(v)))
            }
            UpdateCommand::SetBytes { offset, bytes } => {
                let mut v = require(current, "set_bytes")?.to_vec();
                if offset + bytes.len() > v.len() {
                    return Err(Error::InvalidArgument(format!(
                        "set_bytes range {}..{} outside value of {} bytes",
                        offset,
                        offset + bytes.len(),
                        v.len()
                    )));
                }
                v[*offset..offset + bytes.len()].copy_from_slice(bytes);
                Ok(Some(Bytes::from(v)))
            }
        }
    }

    /// Serialize into `w` — the wire format transaction fragments carry in
    /// sealed sub-blocks, so a replica's block log can replay cross-shard
    /// writes bit-identically after a crash.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            UpdateCommand::Put(v) => {
                w.put_u8(0);
                w.put_bytes(v);
            }
            UpdateCommand::Delete => w.put_u8(1),
            UpdateCommand::AddI64 { offset, delta } => {
                w.put_u8(2);
                w.put_u32(u32::try_from(*offset).expect("offset fits u32"));
                w.put_u64(*delta as u64);
            }
            UpdateCommand::AddF64 { offset, delta } => {
                w.put_u8(3);
                w.put_u32(u32::try_from(*offset).expect("offset fits u32"));
                w.put_u64(delta.to_bits());
            }
            UpdateCommand::MulF64 { offset, factor } => {
                w.put_u8(4);
                w.put_u32(u32::try_from(*offset).expect("offset fits u32"));
                w.put_u64(factor.to_bits());
            }
            UpdateCommand::SetBytes { offset, bytes } => {
                w.put_u8(5);
                w.put_u32(u32::try_from(*offset).expect("offset fits u32"));
                w.put_bytes(bytes);
            }
        }
    }

    /// Inverse of [`UpdateCommand::encode_into`].
    pub fn decode_from(r: &mut Reader<'_>) -> Result<UpdateCommand> {
        Ok(match r.get_u8()? {
            0 => UpdateCommand::Put(Value::from(r.get_bytes()?)),
            1 => UpdateCommand::Delete,
            2 => UpdateCommand::AddI64 {
                offset: r.get_u32()? as usize,
                delta: r.get_u64()? as i64,
            },
            3 => UpdateCommand::AddF64 {
                offset: r.get_u32()? as usize,
                delta: f64::from_bits(r.get_u64()?),
            },
            4 => UpdateCommand::MulF64 {
                offset: r.get_u32()? as usize,
                factor: f64::from_bits(r.get_u64()?),
            },
            5 => UpdateCommand::SetBytes {
                offset: r.get_u32()? as usize,
                bytes: Bytes::from(r.get_bytes()?),
            },
            t => return Err(Error::Corruption(format!("bad update command tag {t}"))),
        })
    }
}

fn require<'a>(current: Option<&'a Value>, op: &str) -> Result<&'a Value> {
    current.ok_or_else(|| Error::InvalidArgument(format!("{op} on missing record")))
}

fn field_mut(v: &mut [u8], offset: usize) -> Result<&mut [u8]> {
    if offset + 8 > v.len() {
        return Err(Error::InvalidArgument(format!(
            "field at {offset} outside value of {} bytes",
            v.len()
        )));
    }
    Ok(&mut v[offset..offset + 8])
}

/// An ordered sequence of update commands against one record — the
/// *coalesced update*. Applying the sequence costs one read and one write
/// regardless of its length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommandSeq {
    cmds: Vec<UpdateCommand>,
}

impl CommandSeq {
    /// Empty sequence.
    #[must_use]
    pub fn new() -> CommandSeq {
        CommandSeq::default()
    }

    /// Sequence holding one command.
    #[must_use]
    pub fn of(cmd: UpdateCommand) -> CommandSeq {
        CommandSeq { cmds: vec![cmd] }
    }

    /// Append a command, folding when algebra allows:
    /// * a blind `Put`/`Delete` absorbs everything before it;
    /// * consecutive `AddI64`/`AddF64` on one field merge their deltas;
    /// * consecutive `MulF64` on one field merge their factors.
    pub fn push(&mut self, cmd: UpdateCommand) {
        if !cmd.is_rmw() {
            self.cmds.clear();
            self.cmds.push(cmd);
            return;
        }
        if let (Some(last), new) = (self.cmds.last_mut(), &cmd) {
            match (last, new) {
                (
                    UpdateCommand::AddI64 {
                        offset: o1,
                        delta: d1,
                    },
                    UpdateCommand::AddI64 {
                        offset: o2,
                        delta: d2,
                    },
                ) if o1 == o2 => {
                    *d1 = d1.wrapping_add(*d2);
                    return;
                }
                (
                    UpdateCommand::AddF64 {
                        offset: o1,
                        delta: d1,
                    },
                    UpdateCommand::AddF64 {
                        offset: o2,
                        delta: d2,
                    },
                ) if o1 == o2 => {
                    *d1 += d2;
                    return;
                }
                (
                    UpdateCommand::MulF64 {
                        offset: o1,
                        factor: f1,
                    },
                    UpdateCommand::MulF64 {
                        offset: o2,
                        factor: f2,
                    },
                ) if o1 == o2 => {
                    *f1 *= f2;
                    return;
                }
                _ => {}
            }
        }
        self.cmds.push(cmd);
    }

    /// Concatenate another sequence after this one.
    pub fn extend(&mut self, other: &CommandSeq) {
        for c in &other.cmds {
            self.push(c.clone());
        }
    }

    /// Apply all commands in order to `current`.
    pub fn apply(&self, current: Option<&Value>) -> Result<Option<Value>> {
        let mut acc: Option<Value> = current.cloned();
        for cmd in &self.cmds {
            acc = cmd.apply(acc.as_ref())?;
        }
        Ok(acc)
    }

    /// Number of commands after folding.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Whether any command in the sequence is a read-modify-write.
    #[must_use]
    pub fn has_rmw(&self) -> bool {
        self.cmds.iter().any(UpdateCommand::is_rmw)
    }

    /// The commands in application order.
    #[must_use]
    pub fn commands(&self) -> &[UpdateCommand] {
        &self.cmds
    }

    /// Serialize the folded sequence into `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u32(u32::try_from(self.cmds.len()).expect("command count"));
        for cmd in &self.cmds {
            cmd.encode_into(w);
        }
    }

    /// Inverse of [`CommandSeq::encode_into`]. Commands are re-pushed
    /// through the folding algebra; folding is idempotent on an already
    /// folded sequence, so the round trip is exact.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<CommandSeq> {
        let n = r.get_u32()? as usize;
        let mut seq = CommandSeq::new();
        for _ in 0..n {
            seq.push(UpdateCommand::decode_from(r)?);
        }
        Ok(seq)
    }
}

impl fmt::Display for CommandSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq[{}]", self.cmds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: i64) -> Value {
        Bytes::from(n.to_le_bytes().to_vec())
    }

    fn as_i64(v: &Value) -> i64 {
        i64::from_le_bytes(v.as_ref().try_into().unwrap())
    }

    #[test]
    fn put_and_delete() {
        let put = UpdateCommand::Put(val(7));
        assert_eq!(put.apply(None).unwrap(), Some(val(7)));
        assert_eq!(put.apply(Some(&val(1))).unwrap(), Some(val(7)));
        assert_eq!(UpdateCommand::Delete.apply(Some(&val(1))).unwrap(), None);
        assert!(!put.is_rmw());
        assert!(!UpdateCommand::Delete.is_rmw());
    }

    #[test]
    fn add_i64() {
        let add = UpdateCommand::AddI64 {
            offset: 0,
            delta: 10,
        };
        assert!(add.is_rmw());
        let out = add.apply(Some(&val(5))).unwrap().unwrap();
        assert_eq!(as_i64(&out), 15);
    }

    #[test]
    fn add_on_missing_record_errors() {
        let add = UpdateCommand::AddI64 {
            offset: 0,
            delta: 1,
        };
        assert!(add.apply(None).is_err());
    }

    #[test]
    fn field_out_of_range_errors() {
        let add = UpdateCommand::AddI64 {
            offset: 4,
            delta: 1,
        };
        assert!(add.apply(Some(&val(0))).is_err());
    }

    #[test]
    fn mul_then_add_matches_paper_example() {
        // Paper §3.3.1: x = 10; T2 applies mul(x,3) then T1 applies
        // add(x,10) after reordering => 40.
        let x = Bytes::from(10f64.to_le_bytes().to_vec());
        let mul = UpdateCommand::MulF64 {
            offset: 0,
            factor: 3.0,
        };
        let add = UpdateCommand::AddF64 {
            offset: 0,
            delta: 10.0,
        };
        let after_mul = mul.apply(Some(&x)).unwrap().unwrap();
        let after_add = add.apply(Some(&after_mul)).unwrap().unwrap();
        let out = f64::from_le_bytes(after_add.as_ref().try_into().unwrap());
        assert_eq!(out, 40.0);
    }

    #[test]
    fn set_bytes_patches_range() {
        let v = Bytes::from(vec![0u8; 8]);
        let cmd = UpdateCommand::SetBytes {
            offset: 2,
            bytes: Bytes::from_static(&[9, 9]),
        };
        let out = cmd.apply(Some(&v)).unwrap().unwrap();
        assert_eq!(out.as_ref(), &[0, 0, 9, 9, 0, 0, 0, 0]);
        let oob = UpdateCommand::SetBytes {
            offset: 7,
            bytes: Bytes::from_static(&[1, 1]),
        };
        assert!(oob.apply(Some(&v)).is_err());
    }

    #[test]
    fn seq_applies_in_order() {
        let mut seq = CommandSeq::new();
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 5,
        });
        seq.push(UpdateCommand::Put(val(100)));
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 1,
        });
        let out = seq.apply(Some(&val(0))).unwrap().unwrap();
        assert_eq!(as_i64(&out), 101);
    }

    #[test]
    fn blind_put_absorbs_prefix() {
        let mut seq = CommandSeq::new();
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 5,
        });
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 6,
        });
        seq.push(UpdateCommand::Put(val(1)));
        assert_eq!(seq.len(), 1, "Put absorbs earlier commands");
        // Semantics unchanged: applies as just Put(1).
        assert_eq!(as_i64(&seq.apply(None).unwrap().unwrap()), 1);
    }

    #[test]
    fn adjacent_adds_fold() {
        let mut seq = CommandSeq::new();
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 5,
        });
        seq.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: -2,
        });
        assert_eq!(seq.len(), 1);
        assert_eq!(as_i64(&seq.apply(Some(&val(10))).unwrap().unwrap()), 13);
        // Different offsets do not fold.
        let mut seq2 = CommandSeq::new();
        seq2.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 1,
        });
        seq2.push(UpdateCommand::AddI64 {
            offset: 8,
            delta: 1,
        });
        assert_eq!(seq2.len(), 2);
    }

    #[test]
    fn folding_preserves_semantics_against_unfolded() {
        use harmony_common::DetRng;
        let mut rng = DetRng::new(21);
        for _ in 0..200 {
            let mut folded = CommandSeq::new();
            let mut raw: Vec<UpdateCommand> = Vec::new();
            for _ in 0..rng.gen_range(6) + 1 {
                let cmd = match rng.gen_range(4) {
                    0 => UpdateCommand::Put(val(rng.gen_range(100) as i64)),
                    1 => UpdateCommand::AddI64 {
                        offset: 0,
                        delta: rng.gen_range(20) as i64 - 10,
                    },
                    2 => UpdateCommand::AddI64 {
                        offset: 8,
                        delta: 3,
                    },
                    _ => UpdateCommand::SetBytes {
                        offset: 0,
                        bytes: Bytes::from(vec![rng.gen_range(255) as u8]),
                    },
                };
                folded.push(cmd.clone());
                raw.push(cmd);
            }
            let start = Bytes::from([7i64.to_le_bytes(), 9i64.to_le_bytes()].concat());
            let mut expect: Option<Value> = Some(start.clone());
            let mut ok = true;
            for c in &raw {
                match c.apply(expect.as_ref()) {
                    Ok(v) => expect = v,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                assert_eq!(folded.apply(Some(&start)).unwrap(), expect);
            }
        }
    }

    #[test]
    fn command_seq_wire_roundtrip() {
        let mut seq = CommandSeq::new();
        seq.push(UpdateCommand::AddI64 {
            offset: 8,
            delta: -3,
        });
        seq.push(UpdateCommand::SetBytes {
            offset: 2,
            bytes: Bytes::from_static(&[7, 7]),
        });
        seq.push(UpdateCommand::AddF64 {
            offset: 16,
            delta: 1.5,
        });
        seq.push(UpdateCommand::MulF64 {
            offset: 16,
            factor: -0.25,
        });
        seq.push(UpdateCommand::Put(val(9)));
        seq.push(UpdateCommand::Delete);
        let mut w = Writer::with_capacity(64);
        seq.encode_into(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let decoded = CommandSeq::decode_from(&mut r).unwrap();
        assert_eq!(decoded, seq);
        // Truncated input is an error, not a panic.
        let mut short = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(CommandSeq::decode_from(&mut short).is_err());
    }

    #[test]
    fn has_rmw_detection() {
        let mut blind = CommandSeq::new();
        blind.push(UpdateCommand::Put(val(1)));
        assert!(!blind.has_rmw());
        let mut rmw = CommandSeq::new();
        rmw.push(UpdateCommand::Put(val(1)));
        rmw.push(UpdateCommand::AddI64 {
            offset: 0,
            delta: 1,
        });
        assert!(rmw.has_rmw());
    }
}
