//! The functional-unit table shared by both timing cores.
//!
//! [`classify_fu`] is a pure function of the decoded instruction; keeping
//! it here gives the event core and the legacy reference one definition
//! that cannot drift.

use arl_isa::{AluOp, FAluOp, Inst};

/// Functional-unit classes (Table 4: 16 int ALUs, 16 FP ALUs, 4 int
/// mul/div, 4 FP mul/div). The discriminants are the serialization tags
/// used by sharded-replay state blobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuClass {
    IntAlu = 0,
    FpAlu = 1,
    IntMulDiv = 2,
    FpMulDiv = 3,
}

impl FuClass {
    /// Decodes a serialization tag; `None` when out of range.
    pub fn from_tag(tag: u8) -> Option<FuClass> {
        match tag {
            0 => Some(FuClass::IntAlu),
            1 => Some(FuClass::FpAlu),
            2 => Some(FuClass::IntMulDiv),
            3 => Some(FuClass::FpMulDiv),
            _ => None,
        }
    }

    /// The serialization tag (two bits).
    pub fn tag(self) -> u8 {
        self as u8
    }
}

/// Execution latency and FU class per instruction (MIPS R10000-flavoured).
/// Loads and stores use an integer ALU for address generation (1 cycle);
/// the memory latency is charged separately by the memory stage.
pub fn classify_fu(inst: &Inst) -> (FuClass, u64) {
    match inst {
        Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
            AluOp::Mul => (FuClass::IntMulDiv, 5),
            AluOp::Div | AluOp::Rem => (FuClass::IntMulDiv, 20),
            _ => (FuClass::IntAlu, 1),
        },
        Inst::FAlu { op, .. } => match op {
            FAluOp::Mul => (FuClass::FpMulDiv, 3),
            FAluOp::Div => (FuClass::FpMulDiv, 12),
            FAluOp::Sqrt => (FuClass::FpMulDiv, 18),
            _ => (FuClass::FpAlu, 2),
        },
        Inst::FCmp { .. } | Inst::CvtIf { .. } | Inst::CvtFi { .. } => (FuClass::FpAlu, 2),
        _ => (FuClass::IntAlu, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_isa::{FCmpOp, Fpr, Gpr};

    #[test]
    fn classify_matches_latency_table() {
        let alu = |op| Inst::Alu {
            op,
            rd: Gpr::T0,
            rs: Gpr::T1,
            rt: Gpr::T2,
        };
        assert_eq!(classify_fu(&alu(AluOp::Add)), (FuClass::IntAlu, 1));
        assert_eq!(classify_fu(&alu(AluOp::Mul)), (FuClass::IntMulDiv, 5));
        assert_eq!(classify_fu(&alu(AluOp::Div)), (FuClass::IntMulDiv, 20));
        assert_eq!(classify_fu(&alu(AluOp::Rem)), (FuClass::IntMulDiv, 20));
        let falu = |op| Inst::FAlu {
            op,
            fd: Fpr::new(0),
            fs: Fpr::new(1),
            ft: Fpr::new(2),
        };
        assert_eq!(classify_fu(&falu(FAluOp::Add)), (FuClass::FpAlu, 2));
        assert_eq!(classify_fu(&falu(FAluOp::Mul)), (FuClass::FpMulDiv, 3));
        assert_eq!(classify_fu(&falu(FAluOp::Div)), (FuClass::FpMulDiv, 12));
        assert_eq!(classify_fu(&falu(FAluOp::Sqrt)), (FuClass::FpMulDiv, 18));
        assert_eq!(
            classify_fu(&Inst::FCmp {
                op: FCmpOp::Lt,
                rd: Gpr::T0,
                fs: Fpr::new(1),
                ft: Fpr::new(2),
            }),
            (FuClass::FpAlu, 2)
        );
        assert_eq!(classify_fu(&Inst::Nop), (FuClass::IntAlu, 1));
        assert_eq!(
            classify_fu(&Inst::Jal { target: 0x40_0000 }),
            (FuClass::IntAlu, 1)
        );
    }

    #[test]
    fn fu_tags_round_trip() {
        for fu in [
            FuClass::IntAlu,
            FuClass::FpAlu,
            FuClass::IntMulDiv,
            FuClass::FpMulDiv,
        ] {
            assert_eq!(FuClass::from_tag(fu.tag()), Some(fu));
        }
        assert_eq!(FuClass::from_tag(4), None);
    }
}
