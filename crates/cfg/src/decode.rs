//! Phase 1–5: lifting a binary image into the rewritable representation.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use gpa_arm::insn::{AddressMode, DpOp, Instruction, MemOffset, MemOp, Operand2};
use gpa_arm::{decode as decode_word, Cond, Reg};
use gpa_image::{Image, SymbolKind};

use crate::program::{FunctionCode, Item, LabelId, Literal, Program};

/// Error produced while lifting an image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeImageError(String);

impl fmt::Display for DecodeImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lift image: {}", self.0)
    }
}

impl std::error::Error for DecodeImageError {}

fn err(message: impl Into<String>) -> DecodeImageError {
    DecodeImageError(message.into())
}

/// Is this instruction a pc-relative literal load, and if so at which
/// absolute address does its pool slot live?
fn literal_target(insn: &Instruction, addr: u32) -> Option<u32> {
    if let Instruction::Mem {
        op: MemOp::Ldr,
        byte: false,
        rn,
        offset: MemOffset::Imm(disp),
        mode: AddressMode::Offset,
        ..
    } = insn
    {
        if rn.is_pc() {
            return Some((addr as i64 + 8 + *disp as i64) as u32);
        }
    }
    None
}

/// Is this the first half of the `mov lr, pc; bx rm` indirect-call idiom?
fn is_mov_lr_pc(insn: &Instruction) -> bool {
    matches!(
        insn,
        Instruction::DataProc {
            cond: Cond::Al,
            op: DpOp::Mov,
            set_flags: false,
            rd,
            op2: Operand2::Reg(rm),
            ..
        } if *rd == Reg::LR && rm.is_pc()
    )
}

/// Lifts a statically linked image into a [`Program`].
///
/// This performs the paper's phases 1–5: disassembly, function
/// partitioning via the symbol table, label insertion for every branch and
/// call target, detection of interwoven literal-pool data via pc-relative
/// loads, and fusing of the position-dependent indirect-call pair.
///
/// # Errors
///
/// Returns a [`DecodeImageError`] when code is not covered by function
/// symbols, a non-data word fails to disassemble, a branch leaves its
/// function without targeting another function's entry, or a literal
/// points into the middle of a function.
pub fn decode_image(image: &Image) -> Result<Program, DecodeImageError> {
    decode_image_with(image, 1)
}

/// [`decode_image`] with the per-function lifting fanned out over up to
/// `jobs` worker threads.
///
/// Functions decode independently — each one reads only the image and
/// the shared entry map — so the fan-out is a plain
/// [`gpa_image::pool::map`] over the address-sorted function list. The
/// outcome is bit-identical at any job count, including failures: when
/// several functions are undecodable, the error reported is the one for
/// the lowest address.
///
/// # Errors
///
/// See [`decode_image`].
pub fn decode_image_with(image: &Image, jobs: usize) -> Result<Program, DecodeImageError> {
    // Function extents from the symbol table, sorted by address.
    let mut fn_syms: Vec<_> = image
        .symbols()
        .iter()
        .filter(|s| s.kind == SymbolKind::Function)
        .collect();
    fn_syms.sort_by_key(|s| s.addr);
    if fn_syms.is_empty() {
        return Err(err("image has no function symbols"));
    }
    let entry_by_addr: HashMap<u32, &str> =
        fn_syms.iter().map(|s| (s.addr, s.name.as_str())).collect();

    let functions = gpa_image::pool::map(fn_syms.len(), jobs, |i| {
        decode_function(image, &fn_syms, i, &entry_by_addr)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let entry = entry_by_addr
        .get(&image.entry())
        .ok_or_else(|| err("entry point is not a function symbol"))?
        .to_string();
    Ok(Program {
        functions,
        data: image.data_bytes().to_vec(),
        data_symbols: image
            .symbols()
            .iter()
            .filter(|s| s.kind == SymbolKind::Object)
            .cloned()
            .collect(),
        code_base: image.code_base(),
        data_base: image.data_base(),
        entry,
    })
}

/// Lifts one function body (three passes over its extent). Pure in
/// everything but the shared image and entry map, which makes it safe to
/// fan out across functions.
fn decode_function(
    image: &Image,
    fn_syms: &[&gpa_image::Symbol],
    i: usize,
    entry_by_addr: &HashMap<u32, &str>,
) -> Result<FunctionCode, DecodeImageError> {
    let sym = fn_syms[i];
    {
        let start = sym.addr;
        let next = fn_syms
            .get(i + 1)
            .map(|s| s.addr)
            .unwrap_or_else(|| image.code_end());
        let end = if sym.size > 0 {
            (start + sym.size).min(next)
        } else {
            next
        };
        if !start.is_multiple_of(4)
            || !end.is_multiple_of(4)
            || start < image.code_base()
            || end > image.code_end()
        {
            return Err(err(format!("function `{}` has a bad extent", sym.name)));
        }

        // Pass A: scan linearly, tracking literal-pool (interwoven data)
        // words discovered through pc-relative loads. Pools follow the code
        // that references them, so a single forward sweep converges.
        let mut data_words: BTreeSet<u32> = BTreeSet::new();
        let mut decoded: BTreeMap<u32, Instruction> = BTreeMap::new();
        let mut addr = start;
        while addr < end {
            if data_words.contains(&addr) {
                addr += 4;
                continue;
            }
            let word = image
                .code_word_at(addr)
                .expect("extent checked against code section");
            match decode_word(word) {
                Ok(insn) => {
                    if let Some(target) = literal_target(&insn, addr) {
                        if !image.contains_code(target) {
                            return Err(err(format!(
                                "pc-relative load at {addr:#x} targets {target:#x} outside code"
                            )));
                        }
                        data_words.insert(target);
                    }
                    decoded.insert(addr, insn);
                }
                Err(_) => {
                    return Err(err(format!(
                        "word {word:#010x} at {addr:#x} in `{}` is neither a valid \
                         instruction nor referenced literal data",
                        sym.name
                    )));
                }
            }
            addr += 4;
        }
        // Referenced pool words may have decoded before being marked; drop
        // them from the instruction map now.
        for d in &data_words {
            decoded.remove(d);
        }

        // Pass B: collect local branch targets for label assignment.
        let mut label_addrs: BTreeSet<u32> = BTreeSet::new();
        for (&addr, insn) in &decoded {
            if let Instruction::Branch { link, offset, .. } = insn {
                let target = (addr as i64 + 8 + *offset as i64 * 4) as u32;
                let is_local = target >= start && target < end && !data_words.contains(&target);
                if is_local && !(*link && entry_by_addr.contains_key(&target)) {
                    label_addrs.insert(target);
                } else if !entry_by_addr.contains_key(&target) {
                    return Err(err(format!(
                        "branch at {addr:#x} in `{}` targets {target:#x}, which is neither \
                         local nor a function entry",
                        sym.name
                    )));
                }
            }
        }
        let labels: HashMap<u32, LabelId> = label_addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, LabelId(i as u32)))
            .collect();

        // Pass C: emit items.
        let mut items: Vec<Item> = Vec::with_capacity(decoded.len());
        let mut pending_mov_lr: Option<u32> = None;
        for (&addr, insn) in &decoded {
            if let Some(&label) = labels.get(&addr) {
                if pending_mov_lr.is_some() {
                    return Err(err(format!(
                        "label falls between mov lr, pc and bx at {addr:#x}"
                    )));
                }
                items.push(Item::Label(label));
            }
            // Fuse mov lr, pc + bx.
            if let Some(mov_addr) = pending_mov_lr.take() {
                match insn {
                    Instruction::Bx { cond: Cond::Al, rm } if *rm != Reg::LR => {
                        items.push(Item::IndirectCall { target: *rm });
                        continue;
                    }
                    _ => {
                        return Err(err(format!(
                            "mov lr, pc at {mov_addr:#x} not followed by bx"
                        )))
                    }
                }
            }
            if is_mov_lr_pc(insn) {
                pending_mov_lr = Some(addr);
                continue;
            }
            if let Some(target) = literal_target(insn, addr) {
                let value = image
                    .code_word_at(target)
                    .expect("literal targets checked in pass A");
                let Instruction::Mem { rd, .. } = insn else {
                    unreachable!("literal_target only matches loads")
                };
                let lit = match entry_by_addr.get(&value) {
                    Some(name) => Literal::Code((*name).to_string()),
                    None => {
                        if image.contains_code(value) {
                            return Err(err(format!(
                                "literal at {target:#x} holds {value:#x}: a code address \
                                 that is not a function entry"
                            )));
                        }
                        Literal::Word(value)
                    }
                };
                items.push(Item::LitLoad { rd: *rd, lit });
                continue;
            }
            if let Instruction::Branch { cond, link, offset } = insn {
                let target = (addr as i64 + 8 + *offset as i64 * 4) as u32;
                if let Some(&label) = labels.get(&target) {
                    if *link {
                        return Err(err(format!("bl at {addr:#x} targets a local label")));
                    }
                    items.push(Item::Branch {
                        cond: *cond,
                        target: label,
                    });
                } else {
                    let name = entry_by_addr
                        .get(&target)
                        .ok_or_else(|| err(format!("unresolved branch target {target:#x}")))?;
                    items.push(if *link {
                        Item::Call {
                            cond: *cond,
                            target: (*name).to_string(),
                        }
                    } else {
                        Item::TailCall {
                            cond: *cond,
                            target: (*name).to_string(),
                        }
                    });
                }
                continue;
            }
            items.push(Item::Insn(*insn));
        }
        if pending_mov_lr.is_some() {
            return Err(err("function ends inside an indirect-call pair".to_string()));
        }

        Ok(FunctionCode {
            name: sym.name.clone(),
            address_taken: sym.address_taken,
            items,
            label_count: labels.len() as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_minicc::{compile, Options};

    fn lift(src: &str) -> Program {
        decode_image(&compile(src, &Options::default()).unwrap()).unwrap()
    }

    #[test]
    fn lifts_trivial_program() {
        let p = lift("int main() { return 3; }");
        assert!(p.function("main").is_some());
        assert!(p.function("_start").is_some());
        assert_eq!(p.entry, "_start");
        // _start: bl main; swi #0.
        let start = p.function("_start").unwrap();
        assert!(matches!(&start.items[0], Item::Call { target, .. } if target == "main"));
        assert!(matches!(
            &start.items[1],
            Item::Insn(Instruction::Swi { imm: 0, .. })
        ));
    }

    #[test]
    fn literal_pools_become_litloads() {
        let p = lift("int counter = 5; int main() { return counter; }");
        let main = p.function("main").unwrap();
        let litloads: Vec<_> = main
            .items
            .iter()
            .filter(|i| matches!(i, Item::LitLoad { .. }))
            .collect();
        assert!(!litloads.is_empty(), "main reads `counter` via a pool");
        // The pool word itself must not appear as an instruction.
        assert!(main.items.iter().all(|i| !matches!(
            i,
            Item::Insn(Instruction::Mem { rn, .. }) if rn.is_pc()
        )));
    }

    #[test]
    fn function_pointer_literals_are_symbolic() {
        let p = lift(
            "int twice(int x) { return x + x; }\n\
             int apply(int f, int x) { return f(x); }\n\
             int main() { return apply(twice, 4); }",
        );
        let main = p.function("main").unwrap();
        assert!(main.items.iter().any(|i| matches!(
            i,
            Item::LitLoad { lit: Literal::Code(name), .. } if name == "twice"
        )));
        let apply = p.function("apply").unwrap();
        assert!(apply
            .items
            .iter()
            .any(|i| matches!(i, Item::IndirectCall { .. })));
    }

    #[test]
    fn branches_become_labels() {
        let p = lift("int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }");
        let main = p.function("main").unwrap();
        assert!(main.label_count >= 2);
        let labels = main
            .items
            .iter()
            .filter(|i| matches!(i, Item::Label(_)))
            .count();
        assert_eq!(labels as u32, main.label_count);
        assert!(main.items.iter().any(|i| matches!(i, Item::Branch { .. })));
    }

    #[test]
    fn round_trip_instruction_counts() {
        let p = lift("int main() { return 42; }");
        // Lifted instruction count = code words minus pool words.
        assert!(p.instruction_count() > 0);
        for f in &p.functions {
            assert!(f.encoded_words() > 0, "{} is non-empty", f.name);
        }
    }

    #[test]
    fn regions_of_compiled_program() {
        let p = lift("int main() { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }");
        let regions = p.regions();
        assert!(regions.len() >= 4);
        // No region contains a label.
        for r in &regions {
            assert!(r.items.iter().all(|i| !matches!(i, Item::Label(_))));
        }
    }

    #[test]
    fn parallel_decode_matches_sequential() {
        let image = compile(
            "int h(int x) { return x * 3 + 1; }\n\
             int a(int x, int y) { return h(x) * h(y); }\n\
             int b(int x, int y) { return h(x) + h(y); }\n\
             int main() { int s = 0; for (int i = 0; i < 5; i++) s += a(i, i + 1) - b(i, s); \
             putint(s); return s; }",
            &Options::default(),
        )
        .unwrap();
        let sequential = decode_image(&image).unwrap();
        for jobs in [2, 3, 8, 64] {
            let parallel = decode_image_with(&image, jobs).unwrap();
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_decode_reports_the_first_error_in_address_order() {
        // Two undecodable functions: every job count must surface the
        // error of the lower-addressed one, exactly like the sequential
        // sweep.
        let mut image = gpa_image::Image::new(0x8000, 0x2_0000);
        image.push_code_word(0xffff_ffff); // bad word in `f`
        image.push_code_word(0xffff_ffff); // bad word in `g`
        image.add_symbol(gpa_image::Symbol::function("f", 0x8000, 4));
        image.add_symbol(gpa_image::Symbol::function("g", 0x8004, 4));
        let sequential = decode_image(&image).unwrap_err();
        assert!(format!("{sequential}").contains("`f`"), "{sequential}");
        for jobs in [2, 8] {
            let parallel = decode_image_with(&image, jobs).unwrap_err();
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn rejects_garbage_image() {
        let mut image = gpa_image::Image::new(0x8000, 0x2_0000);
        image.push_code_word(0xffff_ffff);
        image.add_symbol(gpa_image::Symbol::function("f", 0x8000, 4));
        assert!(decode_image(&image).is_err());
        let empty = gpa_image::Image::new(0x8000, 0x2_0000);
        assert!(decode_image(&empty).is_err());
    }
}
