module github.com/smartfactory/sysml2conf/benchmark

go 1.22

require github.com/smartfactory/sysml2conf v0.0.0

replace github.com/smartfactory/sysml2conf => ../
