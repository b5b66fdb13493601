//! Property battery: a program interrupted at *any* slice boundary,
//! checkpointed through the canonical byte image and resumed —
//! possibly on a different ISA's cost table — finishes with
//! bit-identical machine state, step count and output digest to an
//! uninterrupted run. Run-stepped execution and pricing are checked
//! against a per-op reference built on the public [`VmState::step`].

use myrtus_vm::{
    Checkpoint, CostTable, IsaClass, Op, Program, SliceResult, VmState, DEFAULT_MAX_STEPS,
    STACK_MAX,
};
use proptest::prelude::*;

/// Optional features of a generated program.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    /// The loop reads the seeded input stream; without it the loop
    /// counter stands in, and the program's cost is seed-independent.
    input: bool,
    /// An extra read folded into the digest per iteration, instead of
    /// a `Dup`/`Mul`/`Pop` tail.
    io_heavy: bool,
    /// A data-dependent `Jz` on the accumulator's parity skips part of
    /// the body.
    branchy: bool,
    /// A data-dependent early exit to a `Halt` that is not the last op.
    mid_halt: bool,
    /// 64 `Dup`s per iteration, so the stack saturates at `STACK_MAX`.
    overflow: bool,
    /// A step bound that may cut the run short.
    max_steps: Option<u64>,
}

impl Shape {
    /// Input-reading, with no optional feature.
    fn plain(io_heavy: bool) -> Self {
        Shape { input: true, io_heavy, ..Shape::default() }
    }

    /// Feature flags decoded from random bits.
    fn from_bits(bits: u8, max_steps: Option<u64>) -> Self {
        Shape {
            input: bits & 1 != 0,
            io_heavy: bits & 2 != 0,
            branchy: bits & 4 != 0,
            mid_halt: bits & 8 != 0,
            overflow: bits & 16 != 0,
            max_steps,
        }
    }
}

/// A small random-but-valid program: a bounded loop whose body mixes
/// every op class, parameterized by iteration count, immediates and
/// the optional features of `shape`.
fn gen_program(iters: i64, imm: i64, shift: i64, shape: Shape) -> Program {
    // Enough iterations for the `Dup` run to reach the stack cap.
    let iters = if shape.overflow { iters.max(20) } else { iters };
    let read = if shape.input { Op::Input } else { Op::Load(0) };
    let mut ops = vec![Op::Push(iters), Op::Store(0)];
    let head = ops.len() as u16 + 1; // first op after the Jmp below
    ops.push(Op::Jmp(head));
    ops.extend([
        read,
        Op::Push(imm),
        Op::Add,
        Op::Mix,
        Op::Push(shift),
        Op::Shr,
        Op::Load(1),
        Op::Xor,
        Op::Store(1),
    ]);
    if shape.branchy {
        // Odd accumulator: fold the immediate in once more.
        let skip = ops.len() as u16 + 8;
        ops.extend([
            Op::Load(1),
            Op::Push(1),
            Op::And,
            Op::Jz(skip),
            Op::Load(1),
            Op::Push(imm),
            Op::Add,
            Op::Store(1),
        ]);
    }
    if shape.overflow {
        ops.extend([Op::Dup; 64]);
    }
    if shape.io_heavy {
        ops.extend([read, Op::Out]);
    } else {
        ops.extend([Op::Dup, Op::Mul, Op::Pop]);
    }
    let exit_jz = ops.len() + 3;
    if shape.mid_halt {
        // Leave through the mid-program `Halt` when the accumulator's
        // low nibble is zero; the target is patched below.
        ops.extend([Op::Load(1), Op::Push(15), Op::And, Op::Jz(0)]);
    }
    ops.push(Op::Load(1));
    ops.push(Op::Out);
    ops.push(Op::LoopDec(0, head));
    let halt = ops.len() as u16;
    ops.push(Op::Halt);
    if shape.mid_halt {
        ops[exit_jz] = Op::Jz(halt);
        // Dead tail: the `Halt` is not the last op.
        ops.extend([Op::Push(imm), Op::Out]);
    }
    Program::with_max_steps(ops, 2, shape.max_steps.unwrap_or(DEFAULT_MAX_STEPS))
        .expect("generated program validates")
}

fn isa(pick: u8) -> CostTable {
    match pick % 3 {
        0 => CostTable::for_isa(IsaClass::Arm, 1.0),
        1 => CostTable::for_isa(IsaClass::Riscv, 0.5),
        _ => CostTable::for_isa(IsaClass::Server, 1.2),
    }
}

/// Per-op reference for [`VmState::advance_to`]: the single-stepping
/// budget loop, driven only through the public API.
fn ref_advance(vm: &mut VmState, p: &Program, t: &CostTable, target: u64) -> SliceResult {
    loop {
        if vm.is_halted() {
            return SliceResult::Halted;
        }
        let Some(&op) = p.ops().get(vm.pc() as usize) else {
            vm.step(p, t);
            return SliceResult::Halted;
        };
        if vm.consumed_cycles() + t.cost(op) > target {
            return SliceResult::BudgetExhausted;
        }
        if !vm.step(p, t) {
            return SliceResult::Halted;
        }
    }
}

/// Per-op reference for [`VmState::run_to_halt`].
fn ref_run_to_halt(vm: &mut VmState, p: &Program, t: &CostTable) {
    while vm.step(p, t) {}
}

/// Per-op reference for [`VmState::remaining_cycles`].
fn ref_remaining(vm: &VmState, p: &Program, t: &CostTable) -> u64 {
    let mut scratch = vm.clone();
    ref_run_to_halt(&mut scratch, p, t);
    scratch.consumed_cycles() - vm.consumed_cycles()
}

/// Round-trips an image through its canonical bytes.
fn round_trip(vm: &VmState, p: &Program) -> VmState {
    let cp = Checkpoint::from_bytes(&vm.checkpoint(p).to_bytes()).expect("canonical image decodes");
    VmState::from_checkpoint(&cp, p).expect("fingerprint matches")
}

#[test]
fn input_steered_price_is_never_memoized() {
    let t = isa(0);
    let prices = |shape: Shape| -> Vec<u64> {
        let p = gen_program(30, 5, 7, shape);
        (0..16)
            .map(|seed| {
                let fresh = VmState::new(&p, seed);
                let price = fresh.remaining_cycles(&p, &t);
                assert_eq!(price, ref_remaining(&fresh, &p, &t), "seed {seed}");
                price
            })
            .collect()
    };
    // Input feeds the accumulator the `Jz` branches on.
    let steered = prices(Shape { input: true, branchy: true, ..Shape::default() });
    assert!(steered.iter().any(|&c| c != steered[0]), "the input stream steers the price");
    let fixed = prices(Shape { input: false, branchy: true, ..Shape::default() });
    assert!(fixed.iter().all(|&c| c == fixed[0]), "without input every seed costs the same");
}

#[test]
fn stack_saturates_at_the_cap_like_the_reference() {
    let p = gen_program(30, 3, 9, Shape { overflow: true, ..Shape::default() });
    let t = isa(1);
    let mut fast = VmState::new(&p, 4);
    let mut slow = fast.clone();
    let (mut target, mut peak) = (0, 0);
    loop {
        let got = fast.advance_to(&p, &t, target);
        assert_eq!(got, ref_advance(&mut slow, &p, &t, target));
        let image = fast.checkpoint(&p);
        assert_eq!(image.to_bytes(), slow.checkpoint(&p).to_bytes());
        peak = peak.max(image.stack.len());
        if got == SliceResult::Halted {
            break;
        }
        target += 2_000;
    }
    assert_eq!(peak, STACK_MAX, "the Dup run fills the stack to the cap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Run-stepped slices at random cycle targets, with the cost table
    /// switching between slices as a migration does, stop exactly
    /// where the per-op reference stops: same outcome, same checkpoint
    /// bytes and the same price at every boundary.
    #[test]
    fn run_stepping_matches_the_per_op_reference(
        iters in 1i64..40,
        imm in -1000i64..1000,
        shift in 0i64..64,
        bits in any::<u8>(),
        bound in proptest::option::of(1u64..3_000),
        seed in any::<u64>(),
        strides in proptest::collection::vec(1u64..30_000, 1..16),
        picks in proptest::collection::vec(any::<u8>(), 16),
    ) {
        let p = gen_program(iters, imm, shift, Shape::from_bits(bits, bound));
        let mut fast = VmState::new(&p, seed);
        let mut slow = fast.clone();
        let mut t = isa(0);
        for (&stride, &pick) in strides.iter().zip(&picks) {
            t = isa(pick);
            let target = fast.consumed_cycles() + stride;
            let got = fast.advance_to(&p, &t, target);
            prop_assert_eq!(got, ref_advance(&mut slow, &p, &t, target));
            prop_assert_eq!(fast.checkpoint(&p).to_bytes(), slow.checkpoint(&p).to_bytes());
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(fast.remaining_cycles(&p, &t), ref_remaining(&slow, &p, &t));
            fast = round_trip(&fast, &p);
            slow = round_trip(&slow, &p);
            prop_assert_eq!(&fast, &slow);
        }
        fast.run_to_halt(&p, &t);
        ref_run_to_halt(&mut slow, &p, &t);
        prop_assert_eq!(fast.checkpoint(&p).to_bytes(), slow.checkpoint(&p).to_bytes());
        prop_assert_eq!(&fast, &slow);
        prop_assert!(fast.is_halted());
    }

    /// Pricing equals the reference on the memo path (a fresh image,
    /// memoized per program unless it reads input) and on the scratch
    /// path (a mid-flight or restored image), under every table.
    #[test]
    fn price_matches_the_reference_on_memo_and_scratch_paths(
        iters in 1i64..40,
        imm in -1000i64..1000,
        bits in any::<u8>(),
        bound in proptest::option::of(1u64..3_000),
        seed in any::<u64>(),
        cut in 1u64..60_000,
    ) {
        let p = gen_program(iters, imm, 7, Shape::from_bits(bits, bound));
        for pick in 0..3u8 {
            let t = isa(pick);
            for s in [seed, seed ^ 0x5555, seed.rotate_left(17)] {
                let fresh = VmState::new(&p, s);
                prop_assert_eq!(fresh.remaining_cycles(&p, &t), ref_remaining(&fresh, &p, &t));
                let restored = round_trip(&fresh, &p);
                prop_assert_eq!(restored.remaining_cycles(&p, &t), ref_remaining(&fresh, &p, &t));
            }
            let mut mid = VmState::new(&p, seed);
            mid.advance_to(&p, &t, cut);
            prop_assert_eq!(mid.remaining_cycles(&p, &t), ref_remaining(&mid, &p, &t));
            // A clone of the program carries its memo along.
            let twin = p.clone();
            let fresh = VmState::new(&twin, seed);
            prop_assert_eq!(fresh.remaining_cycles(&twin, &t), ref_remaining(&fresh, &p, &t));
        }
    }

    /// Interrupt at an arbitrary cycle boundary, round-trip through
    /// bytes, resume on the same table: final state, consumed cost and
    /// digest match the uninterrupted run exactly.
    #[test]
    fn interrupt_resume_is_bit_identical(
        iters in 1i64..40,
        imm in -1000i64..1000,
        shift in 0i64..64,
        io_heavy in any::<bool>(),
        seed in any::<u64>(),
        cut in 1u64..60_000,
        pick in any::<u8>(),
    ) {
        let p = gen_program(iters, imm, shift, Shape::plain(io_heavy));
        let t = isa(pick);
        let mut whole = VmState::new(&p, seed);
        whole.run_to_halt(&p, &t);

        let mut head = VmState::new(&p, seed);
        head.advance_to(&p, &t, cut);
        let image = head.checkpoint(&p).to_bytes();
        let cp = Checkpoint::from_bytes(&image).expect("canonical image decodes");
        let mut tail = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
        tail.run_to_halt(&p, &t);

        prop_assert_eq!(&tail, &whole);
        prop_assert_eq!(tail.consumed_cycles(), whole.consumed_cycles());
        prop_assert_eq!(tail.out_digest(), whole.out_digest());
    }

    /// Chop the run into many slices of arbitrary stride (a harsher
    /// schedule than one interruption): still bit-identical.
    #[test]
    fn many_slices_match_one_shot(
        iters in 1i64..30,
        imm in -50i64..50,
        seed in any::<u64>(),
        stride in 200u64..5_000,
        pick in any::<u8>(),
    ) {
        let p = gen_program(iters, imm, 7, Shape::plain(false));
        let t = isa(pick);
        let mut whole = VmState::new(&p, seed);
        whole.run_to_halt(&p, &t);

        let mut sliced = VmState::new(&p, seed);
        let mut target = sliced.consumed_cycles() + stride;
        while sliced.advance_to(&p, &t, target) == SliceResult::BudgetExhausted {
            // Round-trip every boundary through the byte image.
            let cp = Checkpoint::from_bytes(&sliced.checkpoint(&p).to_bytes())
                .expect("canonical image decodes");
            sliced = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
            target += stride;
        }
        prop_assert_eq!(&sliced, &whole);
    }

    /// Migration across ISA classes: steps (the portable work measure)
    /// and the output digest are conserved exactly; the cycle ledger
    /// stays monotone.
    #[test]
    fn cross_isa_resume_conserves_steps(
        iters in 1i64..30,
        seed in any::<u64>(),
        cut in 1u64..40_000,
        src in any::<u8>(),
        dst in any::<u8>(),
    ) {
        let p = gen_program(iters, 13, 5, Shape::plain(true));
        let (ts, tt) = (isa(src), isa(dst));
        let mut reference = VmState::new(&p, seed);
        reference.run_to_halt(&p, &ts);

        let mut vm = VmState::new(&p, seed);
        vm.advance_to(&p, &ts, cut);
        let snap_steps = vm.steps();
        let snap_cycles = vm.consumed_cycles();
        let cp = Checkpoint::from_bytes(&vm.checkpoint(&p).to_bytes()).expect("decodes");
        let mut resumed = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
        prop_assert_eq!(resumed.steps(), snap_steps, "no step re-executed at resume");
        resumed.run_to_halt(&p, &tt);

        prop_assert_eq!(resumed.steps(), reference.steps());
        prop_assert_eq!(resumed.out_digest(), reference.out_digest());
        prop_assert!(resumed.consumed_cycles() >= snap_cycles, "cost ledger is monotone");
    }
}
