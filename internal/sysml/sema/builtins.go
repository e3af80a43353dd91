package sema

// Builtin scalar types implicitly in scope, mirroring the relevant subset of
// the SysML v2 ScalarValues / standard library that factory models use for
// attribute typing.
var builtinTypeNames = []string{
	"String",
	"Boolean",
	"Integer",
	"Natural",
	"Positive",
	"Real",
	"Double",
	"Float",
	"Rational",
	"Number",
	"ScalarValue",
	"Anything",
}

// newBuiltinScope creates the implicit root library package holding the
// builtin scalar definitions.
func (r *resolver) newBuiltinScope() *Element {
	lib := r.newElement(KindPackage, "ScalarValues", nil)
	r.reserveMembers(lib, len(builtinTypeNames))
	for _, n := range builtinTypeNames {
		lib.addMember(r.newElement(KindBuiltin, n, nil))
	}
	return lib
}
