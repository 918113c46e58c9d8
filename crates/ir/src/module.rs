use crate::func::{BlockId, Function};
use crate::inst::{Inst, InstId, Span, Terminator};
use crate::types::ScalarTy;

/// Identifier of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Index into the module's function table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a global within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// Index into the module's global table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A statically allocated memory object (array, struct, or scalar with a
/// memory home).
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Element type for reporting (e.g. stride classification heuristics);
    /// `None` for opaque/struct globals.
    pub elem_ty: Option<ScalarTy>,
    /// Initial contents as `(byte offset, f64 value, store type)` triples;
    /// bytes not covered are zero.
    pub init: Vec<(u64, f64, ScalarTy)>,
}

/// Location of a static instruction: function, block, and position.
///
/// Terminators use `index == block.insts.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstLoc {
    /// The containing function.
    pub func: FuncId,
    /// The containing block.
    pub block: BlockId,
    /// Position within the block (`insts.len()` for the terminator).
    pub index: usize,
}

/// A translation unit: functions, globals, and the module-wide static
/// instruction numbering.
///
/// # Example
///
/// ```
/// use vectorscope_ir::{Module, FunctionBuilder, ScalarTy, Value};
///
/// let mut module = Module::new("unit");
/// let mut b = FunctionBuilder::new(&mut module, "main", &[], None);
/// b.ret(None);
/// let main = b.finish();
/// assert_eq!(module.lookup_function("main"), Some(main));
/// ```
#[derive(Debug, Clone)]
pub struct Module {
    name: String,
    funcs: Vec<Function>,
    globals: Vec<Global>,
    next_inst_id: u32,
    /// Location per static instruction id, indexed by id and sized by the
    /// largest id present (the textual parser may recover ids out of
    /// order, or beyond the numbering counter).
    inst_locs: std::sync::OnceLock<Vec<Option<InstLoc>>>,
}

impl Module {
    /// Creates an empty module named `name` (typically the source file name,
    /// used in reports the way the paper's tables cite `file : line`).
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_string(),
            funcs: Vec::new(),
            globals: Vec::new(),
            next_inst_id: 0,
            inst_locs: std::sync::OnceLock::new(),
        }
    }

    /// The module (source file) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All functions, indexable by [`FuncId::index`].
    pub fn functions(&self) -> &[Function] {
        &self.funcs
    }

    /// The function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a function of this module.
    pub fn function(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Finds a function by name.
    pub fn lookup_function(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name() == name)
            .map(|i| FuncId(i as u32))
    }

    /// All globals, indexable by [`GlobalId::index`].
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// The global `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a global of this module.
    pub fn global(&self, g: GlobalId) -> &Global {
        &self.globals[g.index()]
    }

    /// Finds a global by name.
    pub fn lookup_global(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Adds a zero-initialized global of `size` bytes and returns its id.
    pub fn add_global(&mut self, name: &str, size: u64, elem_ty: Option<ScalarTy>) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global {
            name: name.to_string(),
            size,
            elem_ty,
            init: Vec::new(),
        });
        self.invalidate_loc_cache();
        id
    }

    /// Appends an initializer entry `(offset, value, ty)` to global `g`.
    ///
    /// # Panics
    ///
    /// Panics if the initialized range `[offset, offset + ty.size())` lies
    /// outside the global.
    pub fn init_global(&mut self, g: GlobalId, offset: u64, value: f64, ty: ScalarTy) {
        let global = &mut self.globals[g.index()];
        assert!(
            offset + ty.size() <= global.size,
            "initializer for `{}` out of bounds",
            global.name
        );
        global.init.push((offset, value, ty));
    }

    /// Total number of static instructions (including terminators) numbered
    /// so far; all [`InstId`]s are `< num_inst_ids()`.
    pub fn num_inst_ids(&self) -> usize {
        self.next_inst_id as usize
    }

    /// The location (function/block/index) of static instruction `id`.
    ///
    /// Built lazily and cached; any structural mutation through the builder
    /// invalidates the cache.
    pub fn inst_loc(&self, id: InstId) -> Option<InstLoc> {
        self.loc_table().get(id.index()).copied().flatten()
    }

    /// The instruction at static id `id`, or `None` if `id` names a
    /// terminator or is unknown.
    pub fn inst(&self, id: InstId) -> Option<&Inst> {
        let loc = self.inst_loc(id)?;
        self.function(loc.func)
            .block(loc.block)
            .insts
            .get(loc.index)
    }

    /// The terminator at static id `id`, if `id` names one.
    pub fn terminator(&self, id: InstId) -> Option<&Terminator> {
        let loc = self.inst_loc(id)?;
        let block = self.function(loc.func).block(loc.block);
        if loc.index == block.insts.len() {
            block.term.as_ref()
        } else {
            None
        }
    }

    /// The source span of static instruction `id` ([`Span::SYNTH`] when
    /// unknown).
    pub fn span_of(&self, id: InstId) -> Span {
        if let Some(i) = self.inst(id) {
            i.span
        } else if let Some(t) = self.terminator(id) {
            t.span
        } else {
            Span::SYNTH
        }
    }

    fn loc_table(&self) -> &[Option<InstLoc>] {
        self.inst_locs.get_or_init(|| {
            let mut table: Vec<Option<InstLoc>> = Vec::new();
            let mut set = |id: InstId, loc: InstLoc| {
                if id.index() >= table.len() {
                    table.resize(id.index() + 1, None);
                }
                table[id.index()] = Some(loc);
            };
            for (fi, func) in self.funcs.iter().enumerate() {
                for (bi, block) in func.blocks().iter().enumerate() {
                    let at = |index| InstLoc {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index,
                    };
                    for (ii, inst) in block.insts.iter().enumerate() {
                        set(inst.id, at(ii));
                    }
                    if let Some(term) = &block.term {
                        set(term.id, at(block.insts.len()));
                    }
                }
            }
            table
        })
    }

    pub(crate) fn invalidate_loc_cache(&mut self) {
        self.inst_locs = std::sync::OnceLock::new();
    }

    pub(crate) fn fresh_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst_id);
        self.next_inst_id += 1;
        id
    }

    /// Resets the static-id counter after the parser re-applies the ids
    /// recorded in printed `#id` comments (which may exceed the count the
    /// rebuild emitted, e.g. when the original module had been built
    /// against a shared module-wide counter).
    pub(crate) fn set_next_inst_id(&mut self, next: u32) {
        self.next_inst_id = self.next_inst_id.max(next);
        self.invalidate_loc_cache();
    }

    pub(crate) fn push_function(&mut self, func: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(func);
        self.invalidate_loc_cache();
        id
    }

    /// Pre-declares a function signature so that calls to it can be emitted
    /// before its body is built (forward references, recursion). The body is
    /// installed later with [`crate::FunctionBuilder::reopen`].
    pub fn declare_function(
        &mut self,
        name: &str,
        param_tys: &[ScalarTy],
        ret_ty: Option<ScalarTy>,
    ) -> FuncId {
        self.push_function(Function::new(name, param_tys, ret_ty))
    }

    pub(crate) fn replace_function(&mut self, id: FuncId, func: Function) {
        self.funcs[id.index()] = func;
        self.invalidate_loc_cache();
    }

    pub(crate) fn take_function(&mut self, id: FuncId) -> Function {
        self.invalidate_loc_cache();
        // The placeholder keeps the signature so that name lookups and
        // call-site type checks against this id keep working while the body
        // is being (re)built — required for recursive functions.
        let f = &self.funcs[id.index()];
        let name = f.name().to_string();
        let param_tys: Vec<ScalarTy> = f.params().iter().map(|&r| f.reg(r).ty).collect();
        let ret_ty = f.ret_ty();
        std::mem::replace(
            &mut self.funcs[id.index()],
            Function::new(&name, &param_tys, ret_ty),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::value::Value;
    use crate::BinOp;

    #[test]
    fn globals_roundtrip() {
        let mut m = Module::new("m");
        let g = m.add_global("a", 64, Some(ScalarTy::F64));
        m.init_global(g, 0, 1.5, ScalarTy::F64);
        assert_eq!(m.lookup_global("a"), Some(g));
        assert_eq!(m.global(g).size, 64);
        assert_eq!(m.global(g).init.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn global_init_bounds_checked() {
        let mut m = Module::new("m");
        let g = m.add_global("a", 8, Some(ScalarTy::F64));
        m.init_global(g, 4, 0.0, ScalarTy::F64);
    }

    #[test]
    fn inst_locations_are_resolvable() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "f", &[ScalarTy::F64], Some(ScalarTy::F64));
        let p = b.param(0);
        let r = b.binop(
            BinOp::FAdd,
            ScalarTy::F64,
            Value::Reg(p),
            Value::ImmFloat(1.0),
        );
        b.ret(Some(Value::Reg(r)));
        let f = b.finish();

        let inst = &m.function(f).block(m.function(f).entry()).insts[0];
        let loc = m.inst_loc(inst.id).unwrap();
        assert_eq!(loc.func, f);
        assert_eq!(loc.index, 0);
        assert!(m.inst(inst.id).is_some());
        let term_id = m.function(f).block(m.function(f).entry()).terminator().id;
        assert!(m.terminator(term_id).is_some());
        assert!(m.inst(term_id).is_none());
    }
}
