//! The JT abstract syntax tree.
//!
//! Every statement and expression carries a unique [`NodeId`] and a
//! [`Span`]. The refinement tools in the `sfr` crate address nodes by id
//! when reporting violations and applying transformations, so ids must be
//! stable within one parsed program; re-parsing after a textual transform
//! re-numbers them.

use crate::token::Span;
use std::fmt;

/// Unique id of an AST node within one parsed [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A JT type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `int`
    Int,
    /// `boolean`
    Boolean,
    /// A class type, by name.
    Class(String),
    /// `T[]`
    Array(Box<Type>),
}

impl Type {
    /// `T[]` of this type.
    pub fn array_of(self) -> Type {
        Type::Array(Box::new(self))
    }

    /// True for class and array types (which may be `null`).
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Class(_) | Type::Array(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Boolean => write!(f, "boolean"),
            Type::Class(n) => write!(f, "{n}"),
            Type::Array(t) => write!(f, "{t}[]"),
        }
    }
}

/// Member visibility, defaulting to Java's package-private.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Visibility {
    /// `public`
    Public,
    /// `protected`
    Protected,
    /// No modifier (Java package-private).
    #[default]
    Package,
    /// `private`
    Private,
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Visibility::Public => write!(f, "public"),
            Visibility::Protected => write!(f, "protected"),
            Visibility::Package => Ok(()),
            Visibility::Private => write!(f, "private"),
        }
    }
}

/// The modifier set of a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Modifiers {
    /// Visibility modifier.
    pub visibility: Visibility,
    /// `static`
    pub is_static: bool,
    /// `final`
    pub is_final: bool,
}

/// A whole compilation unit: an ordered list of classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Declared classes, in source order.
    pub classes: Vec<ClassDecl>,
}

impl Program {
    /// Finds a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Finds a class by name, mutably.
    pub fn class_mut(&mut self, name: &str) -> Option<&mut ClassDecl> {
        self.classes.iter_mut().find(|c| c.name == name)
    }
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl {
    /// Node id.
    pub id: NodeId,
    /// Source span of the declaration header.
    pub span: Span,
    /// Class name.
    pub name: String,
    /// Optional superclass name (`extends`).
    pub superclass: Option<String>,
    /// Field declarations, in source order.
    pub fields: Vec<FieldDecl>,
    /// Constructors (name == class name).
    pub ctors: Vec<MethodDecl>,
    /// Ordinary methods.
    pub methods: Vec<MethodDecl>,
}

impl ClassDecl {
    /// Finds a method by name (constructors excluded).
    pub fn method(&self, name: &str) -> Option<&MethodDecl> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Finds a method by name, mutably.
    pub fn method_mut(&mut self, name: &str) -> Option<&mut MethodDecl> {
        self.methods.iter_mut().find(|m| m.name == name)
    }

    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// Modifier set.
    pub modifiers: Modifiers,
    /// Declared type.
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Optional initializer expression.
    pub init: Option<Expr>,
}

/// A method or constructor declaration. Constructors have
/// `return_type == None` and `name` equal to the class name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDecl {
    /// Node id.
    pub id: NodeId,
    /// Source span of the signature.
    pub span: Span,
    /// Modifier set.
    pub modifiers: Modifiers,
    /// `Some(ty)` for value-returning methods, `None` for `void` methods
    /// and constructors.
    pub return_type: Option<Type>,
    /// Method name.
    pub name: String,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// Declared type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// A `{ … }` statement sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// Statements, in order.
    pub stmts: Vec<Stmt>,
}

/// Compound-assignment operator of an assignment statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignOp::Set => write!(f, "="),
            AssignOp::Add => write!(f, "+="),
            AssignOp::Sub => write!(f, "-="),
            AssignOp::Mul => write!(f, "*="),
            AssignOp::Div => write!(f, "/="),
            AssignOp::Rem => write!(f, "%="),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// What kind of statement.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `T x = e;` / `T x;`
    VarDecl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `lvalue op= e;`
    Assign {
        /// Assignment target (a variable, field access, or array index).
        target: Expr,
        /// Plain or compound assignment.
        op: AssignOp,
        /// Right-hand side.
        value: Expr,
    },
    /// An expression evaluated for effect (a call).
    Expr(Expr),
    /// `if (c) then else?`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Optional else branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `while (c) body`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (c);`
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// `for (init; cond; update) body`
    For {
        /// Optional init statement (var decl or assignment).
        init: Option<Box<Stmt>>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Optional update statement (assignment / increment).
        update: Option<Box<Stmt>>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `return e?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block.
    Block(Block),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// True for `+ - * / %`.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)
    }

    /// True for `< <= > >=`.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// True for `== !=`.
    pub fn is_equality(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne)
    }

    /// True for `&& ||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// Node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// What kind of expression.
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// `null`
    Null,
    /// `this`
    This,
    /// A simple name (local, parameter, or implicit-`this` field).
    Var(String),
    /// `object.name`
    Field {
        /// Receiver expression.
        object: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// `array[index]`
    Index {
        /// Array expression.
        array: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `array.length`
    Length {
        /// Array expression.
        array: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `receiver.method(args)`; `receiver == None` means implicit `this`.
    Call {
        /// Optional receiver.
        receiver: Option<Box<Expr>>,
        /// Method name.
        method: String,
        /// Arguments, in order.
        args: Vec<Expr>,
    },
    /// `new C(args)`
    NewObject {
        /// Class name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
    },
    /// `new T[len]` (possibly nested for `new T[a][b]` via element type).
    NewArray {
        /// Element type.
        elem: Type,
        /// Length expression.
        len: Box<Expr>,
    },
}

/// Walks every statement of a method body in pre-order, calling `f`.
pub fn walk_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        walk_stmt(stmt, f);
    }
}

fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_stmt(then_branch, f);
            if let Some(e) = else_branch {
                walk_stmt(e, f);
            }
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => walk_stmt(body, f),
        StmtKind::For {
            init, update, body, ..
        } => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            if let Some(u) = update {
                walk_stmt(u, f);
            }
            walk_stmt(body, f);
        }
        StmtKind::Block(b) => walk_stmts(b, f),
        StmtKind::VarDecl { .. }
        | StmtKind::Assign { .. }
        | StmtKind::Expr(_)
        | StmtKind::Return(_)
        | StmtKind::Break
        | StmtKind::Continue => {}
    }
}

/// Walks every expression reachable from a block in pre-order.
pub fn walk_exprs<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    walk_stmts(block, &mut |stmt| {
        for e in stmt_exprs(stmt) {
            walk_expr(e, f);
        }
    });
}

/// The expressions directly owned by one statement (not recursing into
/// nested statements).
pub fn stmt_exprs(stmt: &Stmt) -> Vec<&Expr> {
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } => init.iter().collect(),
        StmtKind::Assign { target, value, .. } => vec![target, value],
        StmtKind::Expr(e) => vec![e],
        StmtKind::If { cond, .. } => vec![cond],
        StmtKind::While { cond, .. } => vec![cond],
        StmtKind::DoWhile { cond, .. } => vec![cond],
        StmtKind::For { cond, .. } => cond.iter().collect(),
        StmtKind::Return(e) => e.iter().collect(),
        StmtKind::Break | StmtKind::Continue | StmtKind::Block(_) => Vec::new(),
    }
}

/// Walks one expression tree in pre-order.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Field { object, .. } => walk_expr(object, f),
        ExprKind::Index { array, index } => {
            walk_expr(array, f);
            walk_expr(index, f);
        }
        ExprKind::Length { array } => walk_expr(array, f),
        ExprKind::Unary { expr: e, .. } => walk_expr(e, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Call { receiver, args, .. } => {
            if let Some(r) = receiver {
                walk_expr(r, f);
            }
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::NewObject { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::NewArray { len, .. } => walk_expr(len, f),
        ExprKind::Int(_)
        | ExprKind::Bool(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Var(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display_and_predicates() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Int.array_of().to_string(), "int[]");
        assert_eq!(Type::Int.array_of().array_of().to_string(), "int[][]");
        assert_eq!(Type::Class("A".into()).to_string(), "A");
        assert!(Type::Class("A".into()).is_reference());
        assert!(Type::Int.array_of().is_reference());
        assert!(!Type::Boolean.is_reference());
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Add.is_arithmetic());
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Eq.is_equality());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::And.is_arithmetic());
    }

    #[test]
    fn visibility_display() {
        assert_eq!(Visibility::Private.to_string(), "private");
        assert_eq!(Visibility::Package.to_string(), "");
    }

    #[test]
    fn walkers_visit_nested_nodes() {
        // Built by the parser in practice; constructed by hand here.
        let program = crate::parse(
            "class A { void m() { for (int i = 0; i < 3; i++) { if (true) { int x = 1 + 2; } } } }",
        )
        .unwrap();
        let body = &program.classes[0].methods[0].body;
        let mut stmts = 0;
        walk_stmts(body, &mut |_| stmts += 1);
        // for, init, update (i++ desugars to i += 1), body block, if,
        // then block, vardecl.
        assert_eq!(stmts, 7);
        let mut ints = Vec::new();
        walk_exprs(body, &mut |e| {
            if let ExprKind::Int(v) = e.kind {
                ints.push(v);
            }
        });
        ints.sort_unstable();
        // 0 (init), 1 (from i++), 1 and 2 (x init), 3 (bound).
        assert_eq!(ints, vec![0, 1, 1, 2, 3]);
    }
}
