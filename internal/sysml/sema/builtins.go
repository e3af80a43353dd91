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
func newBuiltinScope() *Element {
	lib := &Element{Kind: KindPackage, Name: "ScalarValues"}
	for _, n := range builtinTypeNames {
		lib.addMember(&Element{Kind: KindBuiltin, Name: n})
	}
	return lib
}
